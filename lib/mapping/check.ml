module En = Litmus.Enumerate

type report = {
  name : string;
  ok : bool;
  src_behaviours : int;
  tgt_behaviours : int;
  extra : En.behaviour list;
}

let refines ~src_model ~tgt_model ~src ~tgt =
  (* Cancellation points between the two enumerations: a supervised
     sweep's deadline also fires when the source side finished in time
     but the target side would not have. *)
  Parallel.Supervise.poll ();
  let bs = En.behaviours src_model src in
  Parallel.Supervise.poll ();
  let bt = En.behaviours tgt_model tgt in
  let extra =
    List.filter
      (fun b -> not (List.exists (fun b' -> En.behaviour_compare b b' = 0) bs))
      bt
  in
  {
    name = src.Litmus.Ast.name;
    ok = extra = [];
    src_behaviours = List.length bs;
    tgt_behaviours = List.length bt;
    extra;
  }

(* ------------------------------------------------------------------ *)
(* Batch planner                                                       *)

type cell = {
  cell_scheme : string;
  cell_program : string;
  cell_f : Litmus.Ast.prog -> Litmus.Ast.prog;
  cell_src_model : Axiom.Model.t;
  cell_tgt_model : Axiom.Model.t;
  cell_src : Litmus.Ast.prog;
}

(* The batch engine: instead of one opaque task per (scheme, program)
   cell, plan the whole sweep first.  Transforms run on the caller (they
   are cheap, and an exception surfaces in input order); the
   enumeration work — where all the time goes — is grouped by program
   AST, so each distinct program becomes one pool task enumerated once
   under {e every} model any cell needs ([En.behaviours_many] shares the
   pruned survivor pass across models).  Schemes that target the same
   program under several models (e.g. the same RMW lowering checked
   under arm-orig and arm-fix) collapse to a single enumeration, a
   structural saving a per-cell sweep cannot see.  Reports are
   assembled from the returned behaviour sets in cell order, so results
   are identical — contents and order — to the per-cell sweep. *)
let check_cells ?pool cells =
  let prepared = List.map (fun c -> (c, c.cell_f c.cell_src)) cells in
  let jobs : (Litmus.Ast.prog, Axiom.Model.t list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  let need (m : Axiom.Model.t) p =
    match Hashtbl.find_opt jobs p with
    | Some ms ->
        if
          not
            (List.exists (fun (m' : Axiom.Model.t) -> m'.name = m.name) !ms)
        then ms := m :: !ms
    | None ->
        Hashtbl.add jobs p (ref [ m ]);
        order := p :: !order
  in
  List.iter
    (fun (c, tgt) ->
      need c.cell_src_model c.cell_src;
      need c.cell_tgt_model tgt)
    prepared;
  let jobs_list =
    List.rev_map (fun p -> (p, List.rev !(Hashtbl.find jobs p))) !order
  in
  let results =
    Parallel.Pool.map_list ?pool
      (fun (p, models) -> En.behaviours_many models p)
      jobs_list
  in
  let tbl = Hashtbl.create 64 in
  List.iter2
    (fun (p, _) res ->
      List.iter (fun (mname, bs) -> Hashtbl.replace tbl (mname, p) bs) res)
    jobs_list results;
  List.map
    (fun (c, tgt) ->
      let bs = Hashtbl.find tbl (c.cell_src_model.Axiom.Model.name, c.cell_src) in
      let bt = Hashtbl.find tbl (c.cell_tgt_model.Axiom.Model.name, tgt) in
      let extra =
        List.filter
          (fun b ->
            not (List.exists (fun b' -> En.behaviour_compare b b' = 0) bs))
          bt
      in
      {
        name = Printf.sprintf "%s: %s" c.cell_scheme c.cell_program;
        ok = extra = [];
        src_behaviours = List.length bs;
        tgt_behaviours = List.length bt;
        extra;
      })
    prepared

let check_scheme ?pool ~name f ~src_model ~tgt_model corpus =
  check_cells ?pool
    (List.map
       (fun (tname, src) ->
         {
           cell_scheme = name;
           cell_program = tname;
           cell_f = f;
           cell_src_model = src_model;
           cell_tgt_model = tgt_model;
           cell_src = src;
         })
       corpus)

(* ------------------------------------------------------------------ *)
(* Memoized verdicts for generated corpora                             *)

(* Keyed by (scheme, models, canonical AST): two generated programs that
   canonicalize identically (thread order, location and register names
   normalised away) have isomorphic behaviour sets under every model, so
   they share one verdict.  The served report's [name] is rewritten per
   caller; its counts and extra behaviours come from the first-checked
   member of the class (identical up to the renaming bijection). *)
let memo : (string * string * string * string, report) Hashtbl.t =
  Hashtbl.create 256

let memo_mutex = Mutex.create ()
let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0

let check_memo ~scheme ~f ~src_model ~tgt_model (pname, src) =
  let key =
    ( scheme,
      src_model.Axiom.Model.name,
      tgt_model.Axiom.Model.name,
      Litmus.Generate.canonical_string src )
  in
  let cached =
    Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key)
  in
  let r =
    match cached with
    | Some r ->
        Atomic.incr memo_hits;
        r
    | None ->
        Atomic.incr memo_misses;
        let r = refines ~src_model ~tgt_model ~src ~tgt:(f src) in
        Mutex.protect memo_mutex (fun () -> Hashtbl.replace memo key r);
        r
  in
  { r with name = Printf.sprintf "%s: %s" scheme pname }

let memo_stats () = (Atomic.get memo_hits, Atomic.get memo_misses)

let clear_memo () =
  Mutex.protect memo_mutex (fun () -> Hashtbl.reset memo);
  Atomic.set memo_hits 0;
  Atomic.set memo_misses 0

let all_ok = List.for_all (fun r -> r.ok)

let pp_report ppf r =
  Fmt.pf ppf "[%s] %s (src:%d tgt:%d behaviours)"
    (if r.ok then "OK" else "VIOLATION")
    r.name r.src_behaviours r.tgt_behaviours;
  if not r.ok then
    Fmt.pf ppf "@,  new behaviours: @[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut En.pp_behaviour)
      r.extra
