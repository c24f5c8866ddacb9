open Relalg

type t = {
  events : Event.t list;
  po : Rel.t;
  rf : Rel.t;
  co : Rel.t;
  rmw_plain : Rel.t;
  amo : Rel.t;
  lxsx : Rel.t;
  data : Rel.t;
  ctrl : Rel.t;
  addr : Rel.t;
}

let empty =
  {
    events = [];
    po = Rel.empty;
    rf = Rel.empty;
    co = Rel.empty;
    rmw_plain = Rel.empty;
    amo = Rel.empty;
    lxsx = Rel.empty;
    data = Rel.empty;
    ctrl = Rel.empty;
    addr = Rel.empty;
  }

(* The per-execution index: every mask the accessors below read,
   derived from [events] in one pass, with the list it indexes as its
   [key].  [kinds] holds the fence kinds at [Event.fence_index], then
   the slots named below. *)
type index = {
  key : Event.t list;
  kinds : Iset.t array;
  same_loc : Rel.t;  (* row e: the memory events at e's location *)
  internal : Rel.t;  (* row e: e's thread, empty for an init write *)
  external_ : Rel.t;  (* row e: every event not in [internal]'s row *)
}

let k_all = Event.fence_kinds
let k_read = k_all + 1
let k_write = k_all + 2
let k_acq = k_all + 3
let k_acq_pc = k_all + 4
let k_rel = k_all + 5
let k_sc_read = k_all + 6
let k_sc_write = k_all + 7

let build events =
  let kinds = Array.make (k_sc_write + 1) Iset.empty in
  (* Masks of the events at each location and in each thread. *)
  let locs = ref [] and threads = ref [] and n = ref 0 in
  let join groups found key b =
    match List.find_opt found !groups with
    | Some (_, m) -> m := Iset.union !m b
    | None -> groups := (key, ref b) :: !groups
  in
  List.iter
    (fun (e : Event.t) ->
      let b = Iset.singleton e.id in
      let mark k = kinds.(k) <- Iset.union kinds.(k) b in
      if e.id >= !n then n := e.id + 1;
      mark k_all;
      (match e.label with
      | Read { loc; ord; _ } -> (
          mark k_read;
          join locs (fun (l, _) -> String.equal l loc) loc b;
          match ord with
          | R_acq -> mark k_acq
          | R_acq_pc -> mark k_acq_pc
          | R_sc -> mark k_sc_read
          | R_plain -> ())
      | Write { loc; ord; _ } -> (
          mark k_write;
          join locs (fun (l, _) -> String.equal l loc) loc b;
          match ord with W_rel -> mark k_rel | W_sc -> mark k_sc_write | W_plain -> ())
      | Fence f -> mark (Event.fence_index f));
      if not (Event.is_init e) then
        join threads (fun (t, _) -> Int.equal t e.tid) e.tid b)
    events;
  (* Row [x] of [same_loc] and [internal]: the group holding [x]. *)
  let rows groups =
    let r = Array.make !n Iset.empty in
    List.iter (fun (_, m) -> Iset.fold (fun id () -> r.(id) <- !m) !m ()) !groups;
    r
  in
  let at_loc = rows locs and in_thread = rows threads in
  let all = kinds.(k_all) in
  {
    key = events;
    kinds;
    same_loc = Rel.init !n (Array.get at_loc);
    internal = Rel.init !n (Array.get in_thread);
    external_ =
      Rel.init !n (fun x -> if Iset.mem x all then Iset.diff all in_thread.(x) else Iset.empty);
  }

(* The accessors read a one-entry cache keyed on [events] by physical
   equality: the candidates of one skeleton share its [events] list, so
   the index is built once per skeleton.  A record field would go stale
   under [{ x with events = ... }]; a domain-local cache needs no lock.
   The enumerator checks several skeletons in turn, so it keeps each
   skeleton's index and puts it back with [reuse] before checking that
   skeleton's candidates. *)
let cache = Domain.DLS.new_key (fun () -> ref (build []))

let index x =
  let c = Domain.DLS.get cache in
  if !c.key == x.events then !c
  else
    let i = build x.events in
    c := i;
    i

let reuse i =
  let c = Domain.DLS.get cache in
  if !c != i then c := i

let find x id =
  match List.find_opt (fun (e : Event.t) -> e.id = id) x.events with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Execution.find: no event %d" id)

let kind k x = (index x).kinds.(k)
let reads = kind k_read
let writes = kind k_write
let mems x = Iset.union (reads x) (writes x)
let fences x k = kind (Event.fence_index k) x
let acq_reads = kind k_acq
let acq_pc_reads = kind k_acq_pc
let rel_writes = kind k_rel
let sc_reads = kind k_sc_read
let sc_writes = kind k_sc_write
let rmw x = Rel.union_all [ x.rmw_plain; x.amo; x.lxsx ]
let same_loc x a b = Rel.mem a b (index x).same_loc
let po_loc x = Rel.inter x.po (index x).same_loc

(* fr = rf⁻¹; co *)
let fr x = Rel.compose (Rel.inverse x.rf) x.co

let external_part x r = Rel.inter r (index x).external_
let internal_part x r = Rel.inter r (index x).internal
let rfe x = external_part x x.rf
let rfi x = internal_part x x.rf
let coe x = external_part x x.co
let fre x = external_part x (fr x)

let well_formed x =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let* () =
    (* Every read has exactly one rf source, matching loc and value. *)
    List.fold_left
      (fun acc (e : Event.t) ->
        let* () = acc in
        if not (Event.is_read e) then Ok ()
        else
          let srcs = Iset.to_list (Rel.preds x.rf e.id) in
          match srcs with
          | [ w ] ->
              let we = find x w in
              if not (Event.is_write we) then err "rf source %d is not a write" w
              else if Event.loc we <> Event.loc e then
                err "rf source %d has wrong location for read %d" w e.id
              else if Event.value we <> Event.value e then
                err "rf source %d has wrong value for read %d" w e.id
              else Ok ()
          | [] -> err "read %d has no rf source" e.id
          | _ -> err "read %d has several rf sources" e.id)
      (Ok ()) x.events
  in
  let* () =
    (* co is a strict total order per location, init writes first. *)
    let locs =
      List.filter_map (fun e -> if Event.is_write e then Event.loc e else None)
        x.events
      |> List.sort_uniq String.compare
    in
    List.fold_left
      (fun acc l ->
        let* () = acc in
        let ws = Iset.filter (fun w -> Event.loc (find x w) = Some l) (writes x) in
        if not (Rel.is_strict_total_order_on ws (Rel.restrict ws x.co ws)) then
          err "co is not a strict total order on %s" l
        else
          let inits = Iset.filter (fun w -> Event.is_init (find x w)) ws in
          let non_inits = Iset.diff ws inits in
          if
            Iset.for_all
              (fun i -> Iset.for_all (fun w -> Rel.mem i w x.co) non_inits)
              inits
          then Ok ()
          else err "an init write of %s is not co-minimal" l)
      (Ok ()) locs
  in
  let* () =
    (* rmw pairs: immediate-po, same-location read/write. *)
    Rel.fold
      (fun r w acc ->
        let* () = acc in
        let er = find x r and ew = find x w in
        if not (Event.is_read er && Event.is_write ew) then
          err "rmw pair (%d,%d) is not read→write" r w
        else if not (same_loc x r w) then
          err "rmw pair (%d,%d) not same-location" r w
        else if not (Rel.mem r w x.po) then err "rmw pair (%d,%d) not po" r w
        else Ok ())
      (rmw x) (Ok ())
  in
  Ok ()

let behaviour x =
  let finals =
    List.filter_map
      (fun (e : Event.t) ->
        match e.label with
        (* co-maximal: no same-location co-successor. *)
        | Write { loc; value; _ } when Iset.is_empty (Rel.succs x.co e.id) -> Some (loc, value)
        | Read _ | Write _ | Fence _ -> None)
      x.events
  in
  List.sort
    (fun (l, v) (l', v') -> match String.compare l l' with 0 -> Int.compare v v' | c -> c)
    finals

let pp ppf x =
  Fmt.pf ppf "@[<v>events:@,%a@,po=%a@,rf=%a@,co=%a@]"
    (Fmt.list ~sep:Fmt.cut Event.pp)
    x.events Rel.pp x.po Rel.pp x.rf Rel.pp x.co
