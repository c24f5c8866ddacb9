open Relalg
module E = Axiom.Event
module X = Axiom.Execution

type behaviour = {
  mem : (string * int) list;
  regs : ((int * string) * int) list;
}

let behaviour_compare = compare

let pp_behaviour ppf b =
  let pp_mem ppf (l, v) = Fmt.pf ppf "%s=%d" l v in
  let pp_reg ppf ((tid, r), v) = Fmt.pf ppf "%d:%s=%d" tid r v in
  Fmt.pf ppf "@[%a %a@]"
    Fmt.(list ~sep:sp pp_mem)
    b.mem
    Fmt.(list ~sep:sp pp_reg)
    b.regs

(* ------------------------------------------------------------------ *)
(* Value universe                                                      *)

let rec exp_consts acc = function
  | Ast.Int n -> n :: acc
  | Ast.Reg _ -> acc
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) | Ast.Xor (a, b)
  | Ast.Eq (a, b) | Ast.Ne (a, b) ->
      exp_consts (exp_consts acc a) b

let rec instr_consts acc = function
  | Ast.Load _ | Ast.Fence _ -> acc
  | Ast.Store { value; _ } -> exp_consts acc value
  | Ast.Cas { expect; desired; _ } -> exp_consts (exp_consts acc expect) desired
  | Ast.Assign (_, e) -> exp_consts acc e
  | Ast.If { cond; then_; else_ } ->
      let acc = exp_consts acc cond in
      let acc = List.fold_left instr_consts acc then_ in
      List.fold_left instr_consts acc else_

let universe (p : Ast.prog) =
  let consts =
    List.fold_left
      (fun acc t -> List.fold_left instr_consts acc t.Ast.code)
      (List.map snd p.init) p.threads
  in
  List.sort_uniq compare (0 :: consts)

(* ------------------------------------------------------------------ *)
(* Per-thread symbolic runs with a read-value oracle                   *)

type state = {
  next : int;
  env : (string * (int * Iset.t)) list;  (* reg -> value, taint *)
  ctrl : Iset.t;  (* reads the current control flow depends on *)
  events : E.t list;  (* reversed *)
  rmw : (int * int * Ast.rmw_kind) list;
  data : (int * int) list;
  ctrl_edges : (int * int) list;
}

type run = {
  r_events : E.t list;  (* in po order *)
  r_po : Rel.t Lazy.t;  (* forced only if the run joins a feasible combo *)
  r_reads : (string * int) list;  (* (loc, value) of each read *)
  r_writes : (string * int) list;  (* (loc, value) of each write *)
  r_rmw : (int * int * Ast.rmw_kind) list;
  r_data : (int * int) list;
  r_ctrl : (int * int) list;
  r_env : (string * int) list;
}

let eval env e =
  let rec go = function
    | Ast.Int n -> (n, Iset.empty)
    | Ast.Reg r -> (
        match List.assoc_opt r env with
        | Some (v, t) -> (v, t)
        | None -> (0, Iset.empty))
    | Ast.Add (a, b) -> bin ( + ) a b
    | Ast.Sub (a, b) -> bin ( - ) a b
    | Ast.Mul (a, b) -> bin ( * ) a b
    | Ast.Xor (a, b) -> bin ( lxor ) a b
    | Ast.Eq (a, b) -> bin (fun x y -> if x = y then 1 else 0) a b
    | Ast.Ne (a, b) -> bin (fun x y -> if x <> y then 1 else 0) a b
  and bin f a b =
    let va, ta = go a and vb, tb = go b in
    (f va vb, Iset.union ta tb)
  in
  go e

let set_reg env r v t = (r, (v, t)) :: List.remove_assoc r env

let fresh_event st tid label =
  let e = { E.id = st.next; tid; label } in
  let ctrl_edges =
    if E.is_mem e then
      Iset.fold (fun src acc -> (src, e.id) :: acc) st.ctrl st.ctrl_edges
    else st.ctrl_edges
  in
  (e, { st with next = st.next + 1; events = e :: st.events; ctrl_edges })

(* The ords carried by the events of an RMW, per architecture flavour. *)
let rmw_ords = function
  | Ast.Rmw_x86 -> (E.R_plain, E.W_plain)
  | Ast.Rmw_tcg -> (E.R_sc, E.W_sc)
  | Ast.Rmw_arm { acq; rel; _ } ->
      ((if acq then E.R_acq else E.R_plain), if rel then E.W_rel else E.W_plain)

(* Program order of one thread's run: each event precedes every later
   one. *)
let po_of events =
  let rec pairs acc = function
    | [] -> acc
    | (e : E.t) :: rest ->
        pairs (List.fold_left (fun acc (e' : E.t) -> (e.id, e'.id) :: acc) acc rest) rest
  in
  Rel.of_list (pairs [] events)

let accesses kind events =
  List.filter_map
    (fun (e : E.t) ->
      match (E.loc e, E.value e) with
      | Some l, Some v when kind e -> Some (l, v)
      | _ -> None)
    events

let thread_runs uni tid (code : Ast.instr list) ~first_id =
  let rec exec st instrs =
    match instrs with
    | [] ->
        let r_events = List.rev st.events in
        [
          {
            r_events;
            r_po = lazy (po_of r_events);
            r_reads = accesses E.is_read r_events;
            r_writes = accesses E.is_write r_events;
            r_rmw = st.rmw;
            r_data = st.data;
            r_ctrl = st.ctrl_edges;
            r_env = List.map (fun (r, (v, _)) -> (r, v)) st.env;
          };
        ]
    | i :: rest -> (
        match i with
        | Ast.Assign (r, e) ->
            let v, t = eval st.env e in
            exec { st with env = set_reg st.env r v t } rest
        | Ast.Fence f ->
            let _, st = fresh_event st tid (E.Fence f) in
            exec st rest
        | Ast.Store { loc; value; ord } ->
            let v, t = eval st.env value in
            let e, st = fresh_event st tid (E.Write { loc; value = v; ord }) in
            let data =
              Iset.fold (fun src acc -> (src, e.id) :: acc) t st.data
            in
            exec { st with data } rest
        | Ast.Load { reg; loc; ord } ->
            List.concat_map
              (fun v ->
                let e, st =
                  fresh_event st tid (E.Read { loc; value = v; ord })
                in
                exec
                  { st with env = set_reg st.env reg v (Iset.singleton e.id) }
                  rest)
              uni
        | Ast.Cas { reg; loc; expect; desired; kind } ->
            let exp_v, exp_t = eval st.env expect in
            let des_v, des_t = eval st.env desired in
            let rord, word = rmw_ords kind in
            List.concat_map
              (fun v ->
                let re, st =
                  fresh_event st tid (E.Read { loc; value = v; ord = rord })
                in
                let st =
                  match reg with
                  | Some r ->
                      { st with env = set_reg st.env r v (Iset.singleton re.id) }
                  | None -> st
                in
                if v = exp_v then
                  (* Success: write the desired value, rmw-paired. *)
                  let we, st =
                    fresh_event st tid
                      (E.Write { loc; value = des_v; ord = word })
                  in
                  let data =
                    Iset.fold
                      (fun src acc -> (src, we.id) :: acc)
                      (Iset.union des_t exp_t) st.data
                  in
                  exec
                    { st with data; rmw = (re.id, we.id, kind) :: st.rmw }
                    rest
                else exec st rest)
              uni
        | Ast.If { cond; then_; else_ } ->
            let v, t = eval st.env cond in
            let st = { st with ctrl = Iset.union st.ctrl t } in
            let branch = if v <> 0 then then_ else else_ in
            exec st (branch @ rest))
  in
  exec
    {
      next = first_id;
      env = [];
      ctrl = Iset.empty;
      events = [];
      rmw = [];
      data = [];
      ctrl_edges = [];
    }
    code

(* ------------------------------------------------------------------ *)
(* Candidate assembly                                                  *)

let cartesian (lists : 'a list list) : 'a list list =
  List.fold_right
    (fun l acc -> List.concat_map (fun x -> List.map (fun rest -> x :: rest) acc) l)
    lists [ [] ]

let init_events (p : Ast.prog) ~first_id =
  let locs = Ast.locations p in
  List.mapi
    (fun i loc ->
      let value = Option.value ~default:0 (List.assoc_opt loc p.init) in
      { E.id = first_id + i; tid = E.init_tid; label = E.Write { loc; value; ord = E.W_plain } })
    locs

(* The per-thread runs of a combo, assembled into the candidate's shared
   skeleton: the execution without its rf/co choices, and the register
   valuations.  Every candidate of the combo shares [c_exec.events]
   physically, which is what [Execution]'s index cache keys on. *)
type combo = {
  c_exec : X.t;
  c_regs : ((int * string) * int) list;
}

let ids events = Iset.of_list (List.map (fun (e : E.t) -> e.id) events)

let assemble_combo inits (runs : run list) =
  let events = inits @ List.concat_map (fun r -> r.r_events) runs in
  let regs =
    List.concat_map
      (fun (r, run) -> List.map (fun (reg, v) -> ((r, reg), v)) run.r_env)
      (List.mapi (fun i run -> (i, run)) runs)
    |> List.sort (fun ((t, r), v) ((t', r'), v') ->
           match Int.compare t t' with
           | 0 -> ( match String.compare r r' with 0 -> Int.compare v v' | c -> c)
           | c -> c)
  in
  let rmw = List.concat_map (fun r -> r.r_rmw) runs in
  let pick k =
    Rel.of_list (List.filter_map (fun (r, w, kind) -> if k kind then Some (r, w) else None) rmw)
  in
  {
    c_exec =
      {
        X.events;
        po = Rel.union_all (List.map (fun r -> Lazy.force r.r_po) runs);
        rf = Rel.empty;
        co = Rel.empty;
        rmw_plain =
          pick (function Ast.Rmw_x86 | Ast.Rmw_tcg -> true | Ast.Rmw_arm _ -> false);
        amo = pick (function Ast.Rmw_arm { impl = Ast.Amo; _ } -> true | _ -> false);
        lxsx = pick (function Ast.Rmw_arm { impl = Ast.Lxsx; _ } -> true | _ -> false);
        data = Rel.of_list (List.concat_map (fun r -> r.r_data) runs);
        ctrl = Rel.of_list (List.concat_map (fun r -> r.r_ctrl) runs);
        addr = Rel.empty;
      };
    c_regs = regs;
  }

(* A static bound on the events one run of [code] emits: a load, store
   or fence is one, a CAS two (read, then the write when it succeeds),
   and an [If] its larger branch. *)
let rec events_bound code =
  List.fold_left
    (fun n -> function
      | Ast.Load _ | Ast.Store _ | Ast.Fence _ -> n + 1
      | Ast.Cas _ -> n + 2
      | Ast.Assign _ -> n
      | Ast.If { then_; else_; _ } -> n + max (events_bound then_) (events_bound else_))
    0 code

(* Every read of a combo has a write of its value to its location to
   read from.  Most combos fail this, so both enumerators decide it from
   the runs before assembling the combo. *)
let feasible init_writes runs =
  let has (l, v) = List.exists (fun (l', v') -> v = v' && String.equal l l') in
  List.for_all
    (fun r ->
      List.for_all
        (fun lv -> has lv init_writes || List.exists (fun r' -> has lv r'.r_writes) runs)
        r.r_reads)
    runs

(* Fold [f] over the feasible combos of [p], the first thread's runs
   outermost.

   Event ids are dense: the init writes first, then each thread, in
   ascending tid order, gets a contiguous range of its [events_bound]
   ids.  Ids order events by (tid, po), as the relations' bit rows
   need them to lie in 0–62. *)
let fold_combos (p : Ast.prog) f acc =
  let inits = init_events p ~first_id:0 in
  let first_ids, next =
    List.fold_left
      (fun (acc, next) (t : Ast.thread) -> ((t.tid, next) :: acc, next + events_bound t.code))
      ([], List.length inits)
      (List.sort (fun (a : Ast.thread) (b : Ast.thread) -> Int.compare a.tid b.tid) p.threads)
  in
  if next > 63 then
    invalid_arg
      (Printf.sprintf "Enumerate: program %s may emit %d events; event ids stop at 62"
         p.name next);
  let uni = universe p in
  let runs_per_thread =
    List.map
      (fun (t : Ast.thread) ->
        thread_runs uni t.tid t.code ~first_id:(List.assoc t.tid first_ids))
      p.threads
  in
  let init_writes = accesses E.is_write inits in
  let rec go acc prefix = function
    | [] ->
        let runs = List.rev prefix in
        if feasible init_writes runs then f acc (assemble_combo inits runs) else acc
    | runs :: rest -> List.fold_left (fun acc r -> go acc (r :: prefix) rest) acc runs
  in
  go acc [] runs_per_thread

let execution_of_combo c ~rf ~co = { c.c_exec with rf; co }

let writes_at loc (e : E.t) =
  match e.label with E.Write { loc = l; _ } -> String.equal l loc | _ -> false

let accesses_at loc (e : E.t) =
  match e.label with
  | E.Read { loc = l; _ } | E.Write { loc = l; _ } -> String.equal l loc
  | E.Fence _ -> false

(* The rf choices of each read in [rds]: every write of its value to
   its location. *)
let rf_choices events rds =
  List.map
    (fun (rd : E.t) ->
      match rd.label with
      | E.Read { loc; value; _ } ->
          List.filter_map
            (fun (w : E.t) ->
              match w.label with
              | E.Write { loc = l; value = v; _ } when v = value && String.equal l loc ->
                  Some (w.id, rd.id)
              | _ -> None)
            events
      | _ -> [])
    rds

(* The co choices at [loc]: the orders of its writes with the init
   write first.  [memo] holds one program's orders by write set, which
   most of its combos share. *)
let co_choices memo events loc =
  let ws = List.filter (writes_at loc) events in
  let key = ids ws in
  match Hashtbl.find_opt memo key with
  | Some orders -> orders
  | None ->
      let inits, others = List.partition E.is_init ws in
      let orders = Rel.linear_extensions_memoized key (Rel.cross (ids inits) (ids others)) in
      Hashtbl.add memo key orders;
      orders

(* Fold [f] over the full rf × co candidate product of [p], each
   candidate with its run's register valuation, without materialising
   the product.  [stage] runs once per combo, on its skeleton, and its
   result goes to [f] with each of the combo's candidates. *)
let fold_candidates (p : Ast.prog) ~stage f acc =
  let locs = Ast.locations p and memo = Hashtbl.create 8 in
  fold_combos p
    (fun acc c ->
      Parallel.Supervise.poll ();
      let events = c.c_exec.events in
      let cos = cartesian (List.map (co_choices memo events) locs) in
      let s = stage c.c_exec in
      List.fold_left
        (fun acc rf_pairs ->
          let rf = Rel.of_list rf_pairs in
          List.fold_left
            (fun acc co_parts ->
              f acc s (execution_of_combo c ~rf ~co:(Rel.union_all co_parts)) c.c_regs)
            acc cos)
        acc
        (cartesian (rf_choices events (List.filter E.is_read events))))
    acc

let candidates (p : Ast.prog) =
  List.rev (fold_candidates p ~stage:ignore (fun acc () x regs -> (x, regs) :: acc) [])

(* ------------------------------------------------------------------ *)
(* Pruned enumeration                                                  *)

(* The full rf × co product above is what the docs describe, but most of
   it dies on the first two axioms every model shares (Model.common):
   per-location coherence and RMW atomicity.  Both are per-location
   properties — po-loc, rf, co and fr only ever relate same-location
   events, so any violating cycle lives inside one location.  The pruned
   enumerator therefore filters (rf, co) pairs per location first and
   takes the cross-location product over survivors only, which collapses
   the search space from Π(rf_l × co_l) to Π(survivors_l).

   Soundness: a candidate pruned here fails sc-per-loc or atomicity and
   is rejected by every model, whose [consistent] is [Model.common]
   and its own axiom.  Conversely, a surviving candidate satisfies
   [Model.common] outright: a coherence cycle or an atomicity violation
   of the whole candidate would lie in one location's slice.  So the
   survivors go through each model's own axiom only
   ([Model.t.prepare]), and verdicts are identical to the unpruned
   path. *)

(* Per-location surviving (rf, co) pairs.  [fold_combos] passes only
   combos where every read has a value-compatible source.  [common] is
   [Model.common] prepared on the combo's skeleton: on a candidate
   whose rf and co are the location's slice, it checks per-location
   coherence and atomicity, since po-loc, rf, co and fr relate only
   same-location events. *)
let per_loc_survivors memo common c loc =
  let at = List.filter (accesses_at loc) c.c_exec.events in
  let cos = co_choices memo at loc in
  List.concat_map
    (fun rf_pairs ->
      let rf = Rel.of_list rf_pairs in
      List.filter_map
        (fun co -> if common (execution_of_combo c ~rf ~co) then Some (rf, co) else None)
        cos)
    (cartesian (rf_choices at (List.filter E.is_read at)))

(* The survivors of each location in turn, or None at the first
   location with none. *)
let survivors memo c locs =
  let common = Axiom.Model.prepare_common c.c_exec in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | loc :: rest -> (
        match per_loc_survivors memo common c loc with
        | [] -> None
        | s -> go (s :: acc) rest)
  in
  go [] locs

(* Fold [f] over the pruned survivors of [p] — the candidates that pass
   per-location coherence and atomicity, before any model's own axiom
   runs.  The prune only uses [Model.common] properties, so the
   survivor set is model-independent: a batch checking one program
   under several models enumerates here once and filters per model
   (see {!behaviours_many}).  [stage] runs once per combo with
   survivors, on its skeleton, and its result goes to [f] with each
   survivor: that is where the models are prepared.  [Supervise.poll]
   marks the cooperative cancellation points: Domains cannot be
   preempted, so a supervised sweep's per-task deadline fires here,
   between candidates, rather than never — an unsupervised run pays
   one domain-local read per candidate. *)
let fold_survivors p ~stage f acc =
  let locs = Ast.locations p and memo = Hashtbl.create 8 in
  fold_combos p
    (fun acc c ->
      Parallel.Supervise.poll ();
      match survivors memo c locs with
      | None -> acc
      | Some parts ->
        let s = stage c.c_exec in
        List.fold_left
          (fun acc choice ->
            Parallel.Supervise.poll ();
            let rf = Rel.union_all (List.map fst choice) in
            let co = Rel.union_all (List.map snd choice) in
            let x = execution_of_combo c ~rf ~co in
            f acc s x c.c_regs)
          acc (cartesian parts))
    acc

(* Fold over the model-consistent executions: survivors filtered by the
   model's own axiom, prepared once per combo. *)
let fold_consistent (m : Axiom.Model.t) p f acc =
  fold_survivors p ~stage:m.prepare
    (fun acc check x regs -> if check x then f acc x regs else acc)
    acc

let executions (m : Axiom.Model.t) p =
  List.rev (fold_consistent m p (fun acc x _ -> x :: acc) [])

let consistent_executions (m : Axiom.Model.t) p =
  List.rev
    (fold_consistent m p
       (fun acc x regs -> (x, { mem = X.behaviour x; regs }) :: acc)
       [])

type reject_class = Coherence | Own | Atomicity

(* Witness-observability probe (lib/report): enumerate over the full
   unpruned candidate product so that every rejected candidate — not
   just the post-prune survivors — is seen and classified by the first
   axiom [Explain.check] would find violated: coherence, then the
   model's own axiom, then atomicity.  The classes fall out of the
   staged checks themselves, each prepared once per combo on its
   skeleton: coherence and atomicity once for all models, the own axiom
   per model.  The returned behaviours are exactly [behaviours m p]
   (pruning only discards candidates every model rejects); callers pay
   the unpruned cost only when they opt into the probe.

   [reject i cls x]: the [i]th model rejected [x], first violating the
   [cls] axiom. *)
let probe_fold (models : Axiom.Model.t list) ~reject p =
  let accs = Array.make (List.length models) [] in
  let stage skel =
    ( Axiom.Model.prepare_coherence skel,
      Axiom.Model.prepare_atomicity skel,
      List.mapi (fun i (m : Axiom.Model.t) -> (i, m.prepare skel)) models )
  in
  fold_candidates p ~stage
    (fun () (coherent, atomic, checks) x regs ->
      Parallel.Supervise.poll ();
      if not (coherent x) then List.iter (fun (i, _) -> reject i Coherence x) checks
      else
        let atomic = atomic x in
        List.iter
          (fun (i, own) ->
            if not (own x) then reject i Own x
            else if not atomic then reject i Atomicity x
            else accs.(i) <- { mem = X.behaviour x; regs } :: accs.(i))
          checks)
    ();
  List.mapi
    (fun i (m : Axiom.Model.t) -> (m.name, List.sort_uniq behaviour_compare accs.(i)))
    models

type rejects = { coherence : int; own : int; atomicity : int }

let behaviours_probed_many models p =
  let counts = Array.init (List.length models) (fun _ -> Array.make 3 0) in
  let reject i cls _ =
    let c = counts.(i) and k = match cls with Coherence -> 0 | Own -> 1 | Atomicity -> 2 in
    c.(k) <- c.(k) + 1
  in
  List.mapi
    (fun i (name, bs) ->
      let c = counts.(i) in
      (name, (bs, { coherence = c.(0); own = c.(1); atomicity = c.(2) })))
    (probe_fold models ~reject p)

let behaviours_probed ~on_reject m p =
  snd (List.hd (probe_fold [ m ] ~reject:(fun _ _ x -> on_reject x) p))

(* ------------------------------------------------------------------ *)
(* Behaviours cache                                                    *)

(* [behaviours] is the refinement checker's inner loop, and sweeps ask
   for the same (model, program) pair repeatedly: [Check.refines]
   re-enumerates the unchanged source program for every fence-deletion
   variant of the target, and every scheme shares corpus sources.  The
   cache is keyed by the model's name and the full program AST
   (structural equality — the program is its own hash key, so renamed
   variants never collide).

   It is two-level.  Each domain owns a private (DLS) table consulted
   and written lock-free on the hot path; a shared mutex-guarded table
   backs it.  Fresh entries accumulate in the domain's [dirty] list and
   are folded into the shared table at pool batch boundaries
   ([Pool.on_join]) — so under a parallel sweep the shared mutex is
   touched once per miss (read-through) and once per batch (merge), not
   once per lookup.  Two domains may still race to compute the same
   entry; both compute the same value, and the merge is first-write
   wins.  [clear_caches] advances a generation counter that lazily
   invalidates every domain's private table, so a merge can never
   resurrect pre-clear entries.

   A key carries its hash, computed once per lookup: hashing an AST is
   what a lookup costs, and a miss touches both tables and the merge. *)
module Key = struct
  type t = { hash : int; model : string; prog : Ast.prog }

  let make model prog = { hash = Hashtbl.hash (model, prog); model; prog }
  let hash k = k.hash

  let equal a b =
    a.hash = b.hash && String.equal a.model b.model && (a.prog == b.prog || a.prog = b.prog)
end

module Tbl = Hashtbl.Make (Key)

let behaviours_cache : behaviour list Tbl.t = Tbl.create 64

let behaviours_mutex = Mutex.create ()
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let cache_gen = Atomic.make 0

type local_cache = {
  mutable gen : int;
  tbl : behaviour list Tbl.t;
  mutable dirty : (Key.t * behaviour list) list;
}

let local_key : local_cache Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { gen = Atomic.get cache_gen; tbl = Tbl.create 64; dirty = [] })

let local () =
  let l = Domain.DLS.get local_key in
  let g = Atomic.get cache_gen in
  if l.gen <> g then begin
    Tbl.reset l.tbl;
    l.dirty <- [];
    l.gen <- g
  end;
  l

(* Merge this domain's unpublished entries into the shared table.  The
   generation is re-checked under the lock so a concurrent
   [clear_caches] wins over a straggling merge. *)
let merge_local () =
  let l = local () in
  if l.dirty <> [] then begin
    let entries = l.dirty in
    l.dirty <- [];
    Mutex.protect behaviours_mutex (fun () ->
        if Atomic.get cache_gen = l.gen then
          List.iter
            (fun (k, v) ->
              if not (Tbl.mem behaviours_cache k) then Tbl.replace behaviours_cache k v)
            entries)
  end

let () = Parallel.Pool.on_join merge_local

(* Local first, then read-through to the shared table. *)
let find_cached l key =
  match Tbl.find_opt l.tbl key with
  | Some bs -> Some bs
  | None -> (
      match
        Mutex.protect behaviours_mutex (fun () -> Tbl.find_opt behaviours_cache key)
      with
      | Some bs ->
          Tbl.replace l.tbl key bs;
          Some bs
      | None -> None)

let remember l key bs =
  Tbl.replace l.tbl key bs;
  l.dirty <- (key, bs) :: l.dirty

let behaviours_uncached (m : Axiom.Model.t) p =
  let bs =
    fold_consistent m p
      (fun acc x regs -> { mem = X.behaviour x; regs } :: acc)
      []
  in
  List.sort_uniq behaviour_compare bs

let behaviours (m : Axiom.Model.t) p =
  let key = Key.make m.name p in
  let l = local () in
  match find_cached l key with
  | Some bs ->
      Atomic.incr cache_hits;
      bs
  | None ->
      Atomic.incr cache_misses;
      let bs = behaviours_uncached m p in
      remember l key bs;
      bs

(* One pruned enumeration serving several models.  The survivor set is
   model-independent (see {!fold_survivors}), so a batch that needs the
   same program under k models pays one enumeration plus k cheap
   filters instead of k enumerations — the structural win the batch
   refinement planner ([Mapping.Check.check_cells]) is built on.
   Results are exactly [behaviours m p] for each model, including cache
   interaction. *)
let behaviours_many (models : Axiom.Model.t list) p =
  (* Dedup by model name, preserving first-occurrence order. *)
  let models =
    List.rev
      (List.fold_left
         (fun acc (m : Axiom.Model.t) ->
           if List.exists (fun (m' : Axiom.Model.t) -> String.equal m'.name m.name) acc then acc
           else m :: acc)
         [] models)
  in
  let l = local () in
  let slots =
    List.map
      (fun (m : Axiom.Model.t) ->
        let key = Key.make m.name p in
        (m, key, find_cached l key, ref []))
      models
  in
  (match List.filter (fun (_, _, found, _) -> Option.is_none found) slots with
  | [] -> ()
  | missing ->
      let stage skel =
        List.map (fun ((m : Axiom.Model.t), _, _, acc) -> (m.prepare skel, acc)) missing
      in
      fold_survivors p ~stage
        (fun () checks x regs ->
          let b = lazy { mem = X.behaviour x; regs } in
          List.iter (fun (check, acc) -> if check x then acc := Lazy.force b :: !acc) checks)
        ());
  List.map
    (fun ((m : Axiom.Model.t), key, found, acc) ->
      match found with
      | Some bs ->
          Atomic.incr cache_hits;
          (m.name, bs)
      | None ->
          Atomic.incr cache_misses;
          let bs = List.sort_uniq behaviour_compare !acc in
          remember l key bs;
          (m.name, bs))
    slots

let cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

let clear_caches () =
  Atomic.incr cache_gen;
  Mutex.protect behaviours_mutex (fun () -> Tbl.reset behaviours_cache);
  Atomic.set cache_hits 0;
  Atomic.set cache_misses 0;
  Rel.clear_memo ()

let rec eval_cond (c : Ast.cond) b =
  match c with
  | Ast.True -> true
  | Ast.Reg_is (tid, r, v) -> List.assoc_opt (tid, r) b.regs = Some v
  | Ast.Loc_is (l, v) -> List.assoc_opt l b.mem = Some v
  | Ast.And (a, b') -> eval_cond a b && eval_cond b' b
  | Ast.Or (a, b') -> eval_cond a b || eval_cond b' b
  | Ast.Not a -> not (eval_cond a b)

type verdict = {
  ok : bool;
  total_consistent : int;
  witnesses : behaviour list;
}

let check m (t : Ast.test) =
  let bs = behaviours m t.prog in
  let cond = match t.expect with Ast.Allowed c | Ast.Forbidden c -> c in
  let witnesses = List.filter (eval_cond cond) bs in
  let ok =
    match t.expect with
    | Ast.Allowed _ -> witnesses <> []
    | Ast.Forbidden _ -> witnesses = []
  in
  { ok; total_consistent = List.length bs; witnesses }
