type entry = { name : string; plt_addr : int64; signature : Idl.signature }

type cause = No_idl_signature | Missing_host_symbol | No_plt_slot

type t = { table : entry list; unres : (string * cause) list }

let empty = { table = []; unres = [] }

(* Link-resolution latency and outcomes (Figure 11 step 2): the whole
   import scan is timed into link.resolve.ns, per-PLT-call stub lookups
   into link.lookup.ns. *)
let m_resolve_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "link.resolve.ns")
let m_lookup_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "link.lookup.ns")
let m_resolved = Obs.Metrics.once (fun () -> Obs.Metrics.counter "link.resolved")
let m_unresolved = Obs.Metrics.once (fun () -> Obs.Metrics.counter "link.unresolved")

let resolve (image : Image.Gelf.t) sigs =
  let resolve_one name =
    (* sequential lets: `and` bindings have unspecified evaluation order *)
    let signature =
      List.find_opt (fun (s : Idl.signature) -> s.name = name) sigs
    in
    let host = Hostlib.find name in
    let plt = List.assoc_opt name image.Image.Gelf.plt in
    match (signature, host, plt) with
    | Some signature, Some _, Some plt_addr ->
        Either.Left { name; plt_addr; signature }
    | None, _, _ -> Either.Right (name, No_idl_signature)
    | Some _, None, _ -> Either.Right (name, Missing_host_symbol)
    | Some _, Some _, None -> Either.Right (name, No_plt_slot)
  in
  let table, unres =
    Obs.Trace.with_span ~cat:"link" "resolve"
      ~args:(fun () ->
        [ ("imports", string_of_int (List.length image.Image.Gelf.imports)) ])
      (fun () ->
        Obs.Profile.time (m_resolve_ns ()) (fun () ->
            List.partition_map resolve_one image.Image.Gelf.imports))
  in
  Obs.Metrics.add (m_resolved ()) (List.length table);
  Obs.Metrics.add (m_unresolved ()) (List.length unres);
  { table; unres }

let entries t = t.table
let unresolved t = List.map fst t.unres
let unresolved_causes t = t.unres
let unresolved_cause t name = List.assoc_opt name t.unres

let cause_name = function
  | No_idl_signature -> "no IDL signature"
  | Missing_host_symbol -> "missing host symbol"
  | No_plt_slot -> "no PLT slot"

let rec find_plt addr = function
  | [] -> None
  | e :: rest -> if Int64.equal e.plt_addr addr then Some e else find_plt addr rest

(* Timed only while metrics are on, so the closure is built only then. *)
let lookup t addr =
  if Obs.Metrics.enabled () then
    Obs.Profile.time (m_lookup_ns ()) (fun () -> find_plt addr t.table)
  else find_plt addr t.table
