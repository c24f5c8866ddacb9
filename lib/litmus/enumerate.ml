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
  | Ast.Rmw { op = Ast.Cas { expect; desired }; _ } ->
      exp_consts (exp_consts acc expect) desired
  | Ast.Rmw { op = Ast.Fetch_add e | Ast.Exchange e; _ } | Ast.Assign (_, e) ->
      exp_consts acc e
  | Ast.If { cond; then_; else_ } ->
      let acc = exp_consts acc cond in
      let acc = List.fold_left instr_consts acc then_ in
      List.fold_left instr_consts acc else_

(* The constant operand of each fetch-and-add. *)
let rec instr_addends acc = function
  | Ast.Rmw { op = Ast.Fetch_add (Ast.Int n); _ } -> n :: acc
  | Ast.If { then_; else_; _ } ->
      List.fold_left instr_addends (List.fold_left instr_addends acc then_) else_
  | Ast.Load _ | Ast.Store _ | Ast.Fence _ | Ast.Assign _ | Ast.Rmw _ -> acc

(* The writes that compute their value, each with its expression: a
   store, exchange or compare-and-swap writing neither a constant nor a
   bare register, an assignment likewise (a bare-register store may
   write what it computed), and, tagged [true], a fetch-and-add of a
   non-constant operand. *)
let rec computed_writes acc = function
  | Ast.Store { value = e; _ }
  | Ast.Rmw { op = Ast.Exchange e | Ast.Cas { desired = e; _ }; _ }
  | Ast.Assign (_, e) -> (
      match e with Ast.Int _ | Ast.Reg _ -> acc | e -> (false, e) :: acc)
  | Ast.Rmw { op = Ast.Fetch_add e; _ } -> (
      match e with Ast.Int _ -> acc | e -> (true, e) :: acc)
  | Ast.If { then_; else_; _ } ->
      List.fold_left computed_writes (List.fold_left computed_writes acc then_) else_
  | Ast.Load _ | Ast.Fence _ -> acc

let add_each u d = List.sort_uniq compare (u @ List.map (( + ) d) u)

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

(* The values [e] takes as each register it reads ranges over [u]. *)
let exp_values u e =
  List.map
    (fun env -> fst (eval env e))
    (List.fold_left
       (fun envs r ->
         List.concat_map (fun env -> List.map (fun v -> (r, (v, Iset.empty)) :: env) u) envs)
       [ [] ]
       (List.sort_uniq compare (Ast.exp_regs [] e)))

let close addends u = List.fold_left add_each (List.sort_uniq compare u) addends

(* One round per computed write evaluates every such write with its
   registers ranging over the values so far (a register holds a value
   read, assigned or 0) and closes under the addends again: a stored
   value derives through each write at most once, so the rounds reach
   every value a write can store. *)
let rec close_over_writes addends computed rounds u =
  if rounds = 0 then u
  else
    let u' =
      close addends
        (u
        @ List.concat_map
            (fun (addend, e) ->
              let vs = exp_values u e in
              if addend then List.concat_map (fun x -> List.map (( + ) x) vs) u else vs)
            computed)
    in
    if u' = u then u else close_over_writes addends computed (rounds - 1) u'

(* The constants and initial values, closed under each fetch-and-add of
   a constant: in loop-free code each adds its operand at most once, so
   a location can hold a base value plus any subset of the addends.
   Then closed over the computed writes, if any. *)
let universe (p : Ast.prog) =
  let consts =
    List.fold_left
      (fun acc (t : Ast.thread) -> List.fold_left instr_consts acc t.code)
      (List.map snd p.init) p.threads
  in
  let addends =
    List.fold_left (fun acc (t : Ast.thread) -> List.fold_left instr_addends acc t.code) [] p.threads
  in
  let u = close addends (0 :: consts) in
  match
    List.fold_left (fun acc (t : Ast.thread) -> List.fold_left computed_writes acc t.code) [] p.threads
  with
  | [] -> u
  | computed -> close_over_writes addends computed (List.length computed) u

(* ------------------------------------------------------------------ *)
(* Per-thread symbolic runs over the value universe                    *)

type state = {
  next : int;
  env : (string * (int * Iset.t)) list;  (* reg -> value, taint *)
  ctrl : Iset.t;  (* reads the current control flow depends on *)
  branches : bool list;  (* reversed *)
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
  r_branches : bool list;  (* each [If]'s branch, [true] for [then_], in po order *)
}

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

(* The runs of one thread: each read takes each value of [values] in
   turn. *)
let thread_runs values tid (code : Ast.instr list) ~first_id =
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
            r_branches = List.rev st.branches;
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
                exec { st with env = set_reg st.env reg v (Iset.singleton e.id) } rest)
              values
        | Ast.Rmw { reg; loc; op; kind } ->
            let exp_v, exp_t =
              match op with
              | Ast.Cas { expect; _ } -> eval st.env expect
              | Ast.Fetch_add _ | Ast.Exchange _ -> (0, Iset.empty)
            in
            let arg_v, arg_t =
              eval st.env
                (match op with Ast.Cas { desired = e; _ } | Ast.Fetch_add e | Ast.Exchange e -> e)
            in
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
                if match op with Ast.Cas _ -> v = exp_v | Ast.Fetch_add _ | Ast.Exchange _ -> true
                then
                  (* The write, rmw-paired with the read: a CAS writes
                     [desired], a fetch-and-add the value read plus its
                     operand, an exchange its operand. *)
                  let value =
                    match op with Ast.Fetch_add _ -> v + arg_v | Ast.Cas _ | Ast.Exchange _ -> arg_v
                  in
                  let we, st = fresh_event st tid (E.Write { loc; value; ord = word }) in
                  let data =
                    Iset.fold
                      (fun src acc -> (src, we.id) :: acc)
                      (Iset.union arg_t exp_t) st.data
                  in
                  exec
                    { st with data; rmw = (re.id, we.id, kind) :: st.rmw }
                    rest
                else exec st rest)
              values
        | Ast.If { cond; then_; else_ } ->
            let v, t = eval st.env cond in
            let st = { st with ctrl = Iset.union st.ctrl t; branches = (v <> 0) :: st.branches } in
            exec st ((if v <> 0 then then_ else else_) @ rest))
  in
  exec
    {
      next = first_id;
      env = [];
      ctrl = Iset.empty;
      branches = [];
      events = [];
      rmw = [];
      data = [];
      ctrl_edges = [];
    }
    code

(* ------------------------------------------------------------------ *)
(* Candidate assembly                                                  *)

let init_events (p : Ast.prog) ~first_id =
  let locs = Ast.locations p in
  List.mapi
    (fun i loc ->
      let value = Option.value ~default:0 (List.assoc_opt loc p.init) in
      { E.id = first_id + i; tid = E.init_tid; label = E.Write { loc; value; ord = E.W_plain } })
    locs

let ids events = Iset.of_list (List.map (fun (e : E.t) -> e.id) events)

(* A combo's events: the init writes, then each thread's run's. *)
let combo_events inits (runs : run list) = inits @ List.concat_map (fun r -> r.r_events) runs

(* A combo's register valuations, sorted. *)
let combo_regs (runs : run list) =
  List.concat_map
    (fun (r, run) -> List.map (fun (reg, v) -> ((r, reg), v)) run.r_env)
    (List.mapi (fun i run -> (i, run)) runs)
  |> List.sort (fun ((t, r), v) ((t', r'), v') ->
         match Int.compare t t' with
         | 0 -> ( match String.compare r r' with 0 -> Int.compare v v' | c -> c)
         | c -> c)

(* The skeleton of the combo of [runs] with [events]: the execution
   without its rf/co choices. *)
let skeleton events (runs : run list) =
  let rmw = List.concat_map (fun r -> r.r_rmw) runs in
  let pick k =
    Rel.of_list (List.filter_map (fun (r, w, kind) -> if k kind then Some (r, w) else None) rmw)
  in
  {
    X.events;
    po = Rel.union_all (List.map (fun r -> Lazy.force r.r_po) runs);
    rf = Rel.empty;
    co = Rel.empty;
    rmw_plain = pick (function Ast.Rmw_x86 | Ast.Rmw_tcg -> true | Ast.Rmw_arm _ -> false);
    amo = pick (function Ast.Rmw_arm { impl = Ast.Amo; _ } -> true | _ -> false);
    lxsx = pick (function Ast.Rmw_arm { impl = Ast.Lxsx; _ } -> true | _ -> false);
    data = Rel.of_list (List.concat_map (fun r -> r.r_data) runs);
    ctrl = Rel.of_list (List.concat_map (fun r -> r.r_ctrl) runs);
    addr = Rel.empty;
  }

(* ------------------------------------------------------------------ *)
(* Run shapes                                                          *)

(* The axioms never read a value: they read ids, kinds, locations, ords
   and relations, and the rf choices are matched by value before any
   axiom runs.  So the runs of a thread that are equal but for their
   read and write values (same events, RMW pairs and kinds, data and
   ctrl edges, and branches) give every combo they join the same
   skeleton: they share a shape.  The pass stages each combo shape
   once, on its first combo's skeleton.  As [thread_runs] computes
   them, the RMW pairs and the edges follow from the events and the
   branches (taint never reads a value); the key names them anyway, so
   that it stays sound if that changes. *)
let shape_of (r : run) =
  let erase (e : E.t) =
    match e.label with
    | E.Read l -> { e with label = E.Read { l with value = 0 } }
    | E.Write l -> { e with label = E.Write { l with value = 0 } }
    | E.Fence _ -> e
  in
  (List.map erase r.r_events, r.r_rmw, r.r_data, r.r_ctrl, r.r_branches)

(* Each run's shape id among [runs], numbered from 0 in first-occurrence
   order, and the number of shapes. *)
let shape_ids runs =
  let seen = Hashtbl.create 8 in
  let id r =
    let s = shape_of r in
    match Hashtbl.find_opt seen s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length seen in
        Hashtbl.add seen s i;
        i
  in
  let ids = Array.map id runs in
  (ids, Hashtbl.length seen)

(* A static bound on the events one run of [code] emits: a load, store
   or fence is one, an RMW two (read, then the write; a CAS writes only
   when it succeeds), and an [If] its larger branch. *)
let rec events_bound code =
  List.fold_left
    (fun n -> function
      | Ast.Load _ | Ast.Store _ | Ast.Fence _ -> n + 1
      | Ast.Rmw _ -> n + 2
      | Ast.Assign _ -> n
      | Ast.If { then_; else_; _ } -> n + max (events_bound then_) (events_bound else_))
    0 code

(* Each thread's first event id, in [p.threads] order, and the id after
   the last thread's range.  Ids are dense: the init writes first, then
   each thread, in ascending tid order, a contiguous range of its
   [events_bound] ids, so ids order events by (tid, po) as the
   relations' bit rows need them to lie in 0–62. *)
let first_ids (p : Ast.prog) =
  let firsts, next =
    List.fold_left
      (fun (acc, next) (t : Ast.thread) -> ((t.tid, next) :: acc, next + events_bound t.code))
      ([], List.length (Ast.locations p))
      (List.sort (fun (a : Ast.thread) (b : Ast.thread) -> Int.compare a.tid b.tid) p.threads)
  in
  (List.map (fun (t : Ast.thread) -> List.assoc t.tid firsts) p.threads, next)

let rec written l (v : int) = function
  | [] -> false
  | (l', v') :: rest -> (v = v' && String.equal l l') || written l v rest

(* Does the run [pick] chooses for thread [t] or a later one write [v]
   to [l]? *)
let rec combo_writes runs pick l v t =
  t < Array.length runs && (written l v runs.(t).(pick.(t)).r_writes || combo_writes runs pick l v (t + 1))

let rec reads_fed init_writes runs pick = function
  | [] -> true
  | (l, v) :: rest ->
      (written l v init_writes || combo_writes runs pick l v 0) && reads_fed init_writes runs pick rest

(* Every read of the combo that [pick] chooses from [runs], from thread
   [t] on, has a write of its value to its location to read from.  Most
   combos fail this, so the pass decides it from the runs before
   assembling the combo, by plain recursion that allocates nothing. *)
let rec feasible init_writes runs pick t =
  t = Array.length runs
  || reads_fed init_writes runs pick runs.(t).(pick.(t)).r_reads
     && feasible init_writes runs pick (t + 1)

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
      let orders = Rel.linear_extensions key (Rel.cross (ids inits) (ids others)) in
      Hashtbl.add memo key orders;
      orders

(* The (rf, co) dimensions of [events]' candidates: each read's rf
   choices, then each of [locs]' co choices. *)
let dims memo events locs =
  List.map
    (List.map (fun pair -> (Rel.of_list [ pair ], Rel.empty)))
    (rf_choices events (List.filter E.is_read events))
  @ List.map (fun l -> List.map (fun co -> (Rel.empty, co)) (co_choices memo events l)) locs

(* The candidates of [dims]: one union per dimension, the first
   dimension outermost. *)
let product dims =
  let rec go rf co dims acc =
    match dims with
    | [] -> (rf, co) :: acc
    | d :: rest ->
        List.fold_right (fun (r, c) acc -> go (Rel.union rf r) (Rel.union co c) rest acc) d acc
  in
  go Rel.empty Rel.empty dims []

(* ------------------------------------------------------------------ *)
(* Pruned enumeration                                                  *)

(* Most of the rf × co product dies on the two axioms every model lists
   ([Model.make] checks it), per-location coherence and atomicity:
   po-loc, rf, co and fr relate same-location events only, so any
   violation lies in one location's slice.  The pruned pass filters
   (rf, co) pairs per location and takes the cross-location product of
   the survivors, which satisfy both, so only each model's other axioms
   are tested on them: verdicts equal the unpruned product's. *)

let per_location = [ Axiom.Model.coherence; Axiom.Model.atomicity ]

(* Per-location surviving (rf, co) pairs of a combo with [events]:
   [common] checks per-location coherence and atomicity on a candidate
   whose rf and co are the location's slice, since po-loc, rf, co and fr
   relate only same-location events. *)
let per_loc_survivors memo common events loc =
  List.filter common (product (dims memo (List.filter (accesses_at loc) events) [ loc ]))

(* The survivors of each location in turn, or None at the first
   location with none. *)
let survivors memo common events locs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | loc :: rest -> (
        match per_loc_survivors memo common events loc with
        | [] -> None
        | s -> go (s :: acc) rest)
  in
  go [] locs

(* ------------------------------------------------------------------ *)
(* One candidate pass per source                                       *)

type image = Ast.prog * Axiom.Model.t list

(* The zip: the image's code is the source's once fences are dropped,
   annotations and RMW flavours aside.  A run is then fixed by its read
   values on both sides, and the [k]th access of a source run is the
   [k]th of its image run (same kind, location and value, RMWs paired
   on both sides), so feasibility, rf/co choices and the per-location
   prune carry over; only the image's axioms see its fences. *)
let rec zip_code src img =
  match (src, img) with
  | Ast.Fence _ :: src, img | src, Ast.Fence _ :: img -> zip_code src img
  | [], [] -> true
  | a :: src, b :: img -> zip_instr a b && zip_code src img
  | _ -> false

and zip_instr a b =
  match (a, b) with
  | Ast.Load a, Ast.Load b -> String.equal a.reg b.reg && String.equal a.loc b.loc
  | Ast.Store a, Ast.Store b -> String.equal a.loc b.loc && a.value = b.value
  | Ast.Rmw a, Ast.Rmw b -> a.reg = b.reg && String.equal a.loc b.loc && a.op = b.op
  | Ast.If a, Ast.If b -> a.cond = b.cond && zip_code a.then_ b.then_ && zip_code a.else_ b.else_
  | Ast.Assign _, Ast.Assign _ -> a = b
  | _ -> false

(* How an image zips with the source: it is the source, or its runs
   derive from the source's (with its threads' first ids), or it does
   not zip. *)
type zip = Same | Derived of int list | Apart

let zip (src : Ast.prog) (img : Ast.prog) =
  if img == src then Same
  else if
    img.init = src.init
    && List.equal
         (fun (s : Ast.thread) (i : Ast.thread) -> s.tid = i.tid && zip_code s.code i.code)
         src.threads img.threads
  then
    let firsts, next = first_ids img in
    if next > 63 then Apart else if img = src then Same else Derived firsts
  else Apart

let zips src img = match zip src img with Apart -> false | Same | Derived _ -> true

let rec paired id = function [] -> false | (r, _, _) :: rest -> r = id || paired id rest

(* The image run of source run [r] on image code [code], which zips
   with the source thread's.  The walk follows [r]'s branch decisions:
   each access takes [r]'s next access event, relabelled with the
   image's ord or RMW flavour, each fence a fresh id, and an RMW keeps
   its write exactly when [r] pairs one with the read.  Ids run from
   [first_id] in po order, as [thread_runs] numbers them.  Registers,
   reads and writes are [r]'s; its data and ctrl edges map through the
   access id pairs (source, image), returned with the run. *)
let derive (r : run) tid code ~first_id =
  let next = ref first_id and events = ref [] and pairs = ref [] and rmw = ref [] in
  let emit (s : E.t) label =
    let e = { E.id = !next; tid; label } in
    incr next;
    events := e :: !events;
    pairs := (s.id, e.id) :: !pairs;
    e.id
  in
  let rec walk accs branches = function
    | [] -> ()
    | Ast.Assign _ :: rest -> walk accs branches rest
    | Ast.Fence f :: rest ->
        events := { E.id = !next; tid; label = E.Fence f } :: !events;
        incr next;
        walk accs branches rest
    | Ast.If { then_; else_; _ } :: rest -> (
        match branches with
        | b :: branches -> walk accs branches ((if b then then_ else else_) @ rest)
        | [] -> invalid_arg "Enumerate.derive: a branch past the run")
    | i :: rest -> (
        match (i, accs) with
        | Ast.Load { ord; _ }, ({ E.label = E.Read { loc; value; _ }; _ } as s) :: accs ->
            ignore (emit s (E.Read { loc; value; ord }));
            walk accs branches rest
        | Ast.Store { ord; _ }, ({ E.label = E.Write { loc; value; _ }; _ } as s) :: accs ->
            ignore (emit s (E.Write { loc; value; ord }));
            walk accs branches rest
        | Ast.Rmw { kind; _ }, ({ E.label = E.Read { loc; value; _ }; _ } as s) :: accs -> (
            let rord, word = rmw_ords kind in
            let re = emit s (E.Read { loc; value; ord = rord }) in
            match accs with
            | ({ E.label = E.Write { loc; value; _ }; _ } as sw) :: accs when paired s.id r.r_rmw ->
                rmw := (re, emit sw (E.Write { loc; value; ord = word }), kind) :: !rmw;
                walk accs branches rest
            | accs -> walk accs branches rest)
        | _ -> invalid_arg "Enumerate.derive: the code does not zip")
  in
  walk (List.filter E.is_mem r.r_events) r.r_branches code;
  let pairs = !pairs and r_events = List.rev !events in
  let map (a, b) = (List.assoc a pairs, List.assoc b pairs) in
  ( {
      r with
      r_events;
      r_po = lazy (po_of r_events);
      r_rmw = !rmw;
      r_data = List.map map r.r_data;
      r_ctrl = List.map map r.r_ctrl;
    },
    pairs )

(* A zipping image: its number, its models, and its run (and access id
   pairs) for source run [k] of thread [t], derived on first use
   ([None]: the source itself). *)
type side = {
  s_index : int;
  s_models : Axiom.Model.t array;
  s_run : (int -> int -> run * (int * int) list) option;
}

(* A model's check of one axiom: a per-location axiom reads the
   combo's verdict on the candidate, the others are staged on the
   side's skeleton. *)
type check = Common of Axiom.Model.axiom | Staged of (X.t -> bool)

(* The position of the first of [checks] that candidate [l] (execution
   [x]) fails, counted from [j], or -1. *)
let rec first_failing common l x j = function
  | [] -> -1
  | Common a :: rest -> if common l a then first_failing common l x (j + 1) rest else j
  | Staged check :: rest ->
      if check (Lazy.force x) then first_failing common l x (j + 1) rest else j

(* What a side needs to check the candidates of one combo shape: its
   skeleton and the skeleton's index, the map of source ids onto its
   own, and per model the staged checks, or, for a model that
   {!Axiom.Model.agree}s there with an earlier one, [alias] naming that
   one, whose verdicts it copies. *)
type staged = {
  g_side : side;
  g_skel : X.t;
  g_index : X.index;
  g_ids : Rel.t -> Rel.t;
  g_alias : int array;
  g_checks : check list array;
}

(* A combo shape: the source skeleton (relations and its first combo's
   events) and its index, the per-location axioms staged there, and
   each zipping side's staging, built at the shape's first surviving
   combo from the runs its first combo chose. *)
type shape = {
  h_skel : X.t;
  h_index : X.index;
  h_coherence : X.t -> bool;
  h_atomicity : X.t -> bool;
  h_sides : staged list Lazy.t;
}

(* The pass over [images], each with its zip: the source's runs,
   feasible combos and candidates (the unpruned product, or the
   per-location survivors) once; each zipping image maps every combo's
   candidates onto its own skeleton.  Skeletons and staged checks are
   built once per combo shape: a combo's candidates are checked on its
   shape's skeletons, and the execution [f] gets is the shape's
   relations with the combo's own events.  [Supervise.poll] marks the
   cooperative cancellation points: Domains cannot be preempted, so a
   supervised sweep's per-task deadline fires here, between candidates,
   rather than never. *)
let fold_zipped ~probe (src : Ast.prog) images f acc =
  let firsts, next = first_ids src in
  if next > 63 then
    invalid_arg
      (Printf.sprintf "Enumerate: program %s may emit %d events; event ids stop at 62"
         src.name next);
  let inits = init_events src ~first_id:0 and uni = universe src in
  let runs =
    Array.of_list
      (List.map2
         (fun (t : Ast.thread) first_id ->
           Array.of_list (thread_runs uni t.tid t.code ~first_id))
         src.threads firsts)
  in
  let locs = Ast.locations src and memo = Hashtbl.create 8 in
  let init_writes = accesses E.is_write inits and nthreads = Array.length runs in
  let pick = Array.make nthreads 0 and count = ref 0 in
  let side i (((p : Ast.prog), models), zip) =
    let s_models = Array.of_list models in
    match zip with
    | Apart -> None
    | Same -> Some { s_index = i; s_models; s_run = None }
    | Derived firsts ->
        let threads = Array.of_list (List.combine p.threads firsts) in
        let derived = Array.map (fun rs -> Array.make (Array.length rs) None) runs in
        let s_run t k =
          match derived.(t).(k) with
          | Some r -> r
          | None ->
              let (th : Ast.thread), first_id = threads.(t) in
              let r = derive runs.(t).(k) th.tid th.code ~first_id in
              derived.(t).(k) <- Some r;
              r
        in
        Some { s_index = i; s_models; s_run = Some s_run }
  in
  let sides = List.filter_map Fun.id (List.mapi side images) in
  (* A combo's shape key: its threads' run shape ids in mixed radix.
     The radices' product is at most the number of combos [choose]
     walks, so it fits an int. *)
  let shape_ids = Array.map shape_ids runs in
  let shape_key () =
    let rec go t radix key =
      if t = nthreads then key
      else
        let ids, n = shape_ids.(t) in
        go (t + 1) (radix * n) (key + (radix * ids.(pick.(t))))
    in
    go 0 1 0
  in
  let shapes = Hashtbl.create 16 in
  (* One side's staging on the shape of the combo whose runs [picks]
     chose; the source's skeleton and index are the shape's. *)
  let stage skel index picks side =
    let skel, index, ids =
      match side.s_run with
      | None -> (skel, index, Fun.id)
      | Some run ->
          let img = List.init nthreads (fun t -> run t picks.(t)) in
          let m = Array.init 63 Fun.id in
          List.iter (fun (_, pairs) -> List.iter (fun (a, b) -> m.(a) <- b) pairs) img;
          let runs = List.map fst img in
          let skel = skeleton (combo_events inits runs) runs in
          (skel, X.index skel, Rel.map (Array.get m))
    in
    X.reuse index;
    let models = side.s_models in
    let alias =
      Array.init (Array.length models) (fun j ->
          let rec first i = if i = j || Axiom.Model.agree models.(i) models.(j) skel then i else first (i + 1) in
          first 0)
    in
    let check (a : Axiom.Model.axiom) =
      if List.memq a per_location then Common a else Staged (Axiom.Model.prepare a skel)
    in
    let checks =
      Array.mapi
        (fun j (m : Axiom.Model.t) -> if alias.(j) = j then List.map check m.axioms else [])
        models
    in
    { g_side = side; g_skel = skel; g_index = index; g_ids = ids; g_alias = alias; g_checks = checks }
  in
  let shape events crs =
    let skel = skeleton events crs in
    let index = X.index skel and picks = Array.copy pick in
    {
      h_skel = skel;
      h_index = index;
      h_coherence = Axiom.Model.prepare Axiom.Model.coherence skel;
      h_atomicity = Axiom.Model.prepare Axiom.Model.atomicity skel;
      h_sides = lazy (List.map (stage skel index picks) sides);
    }
  in
  (* One side's candidates of a combo, numbered from [k0], checked on
     the side's skeleton; [f] gets the execution with the combo's
     [events], built when forced. *)
  let visit events regs cands common k0 acc g =
    let side = g.g_side in
    let events =
      match side.s_run with
      | None -> Lazy.from_val events
      | Some run ->
          let picks = Array.copy pick in
          lazy (combo_events inits (List.init nthreads (fun t -> fst (run t picks.(t)))))
    in
    (* The zip gives the image run the source run's registers. *)
    let regs = Lazy.force regs in
    let n = Array.length side.s_models in
    let rec go l acc = function
      | [] -> acc
      | (rf, co) :: rest ->
          Parallel.Supervise.poll ();
          let x = lazy { g.g_skel with rf = g.g_ids rf; co = g.g_ids co } in
          (* The previous side's checks, or [f], may have replaced the
             cached index. *)
          X.reuse g.g_index;
          let v = Array.make n (-1) in
          for j = 0 to n - 1 do
            let a = g.g_alias.(j) in
            v.(j) <- (if a = j then first_failing common l x 0 g.g_checks.(j) else v.(a))
          done;
          let x = lazy { (Lazy.force x) with events = Lazy.force events } in
          go (l + 1) (f acc side.s_index (k0 + l) x regs v) rest
    in
    go 0 acc cands
  in
  let on_combo acc =
    Parallel.Supervise.poll ();
    let crs = List.init nthreads (fun t -> runs.(t).(pick.(t))) in
    let events = combo_events inits crs in
    let h =
      let key = shape_key () in
      match Hashtbl.find_opt shapes key with
      | Some h -> h
      | None ->
          let h = shape events crs in
          Hashtbl.add shapes key h;
          h
    in
    let on (rf, co) = { h.h_skel with rf; co } in
    X.reuse h.h_index;
    match
      if probe then Some (dims memo events locs)
      else
        survivors memo (fun c -> let x = on c in h.h_coherence x && h.h_atomicity x) events locs
    with
    | None -> acc
    | Some dims ->
        let cands = product dims in
        (* Survivors pass both per-location axioms; probed, each
           candidate's verdicts are its source candidate's. *)
        let common =
          if not probe then fun _ _ -> true
          else
            let verdict c = let x = on c in (h.h_coherence x, h.h_atomicity x) in
            let holds = Array.of_list (List.map verdict cands) in
            fun l a -> (if a == Axiom.Model.coherence then fst else snd) holds.(l)
        in
        let k0 = !count in
        count := k0 + List.length cands;
        List.fold_left (visit events (lazy (combo_regs crs)) cands common k0) acc (Lazy.force h.h_sides)
  in
  (* Thread [t]'s runs from the [k]th, each with every choice of the
     later threads'. *)
  let rec choose t k acc =
    if t = nthreads then if feasible init_writes runs pick 0 then on_combo acc else acc
    else if k = Array.length runs.(t) then acc
    else begin
      pick.(t) <- k;
      choose t (k + 1) (choose (t + 1) 0 acc)
    end
  in
  choose 0 0 acc

let zipped src images = List.map (fun ((p, _) as im) -> (im, zip src p)) images
let fold ~probe src images = fold_zipped ~probe src (zipped src images)

let candidates p =
  List.rev (fold ~probe:true p [ (p, []) ] (fun acc _ _ x regs _ -> (Lazy.force x, regs) :: acc) [])

(* The model-consistent executions of [p] under [m], in enumeration
   order, as [g x regs]. *)
let consistent m p g =
  let keep acc _ _ x regs v = if v.(0) < 0 then g (Lazy.force x) regs :: acc else acc in
  List.rev (fold ~probe:false p [ (p, [ m ]) ] keep [])

let executions m p = consistent m p (fun x _ -> x)
let consistent_executions m p = consistent m p (fun x regs -> (x, { mem = X.behaviour x; regs }))

let behaviours_probed ~on_reject m p =
  let keep acc _ _ x regs v =
    let x = Lazy.force x in
    if v.(0) >= 0 then (on_reject x; acc) else { mem = X.behaviour x; regs } :: acc
  in
  List.sort_uniq behaviour_compare (fold ~probe:true p [ (p, [ m ]) ] keep [])

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

(* One per {!pass}, read by [cache_stats]. *)
let passes = Atomic.make 0

(* An image that does not zip takes a pass of its own; each image's zip
   is decided once. *)
let rec pass ~probe src images =
  Atomic.incr passes;
  let acc (m : Axiom.Model.t) = (ref [], Array.make (List.length m.axioms) 0) in
  let accs = Array.of_list (List.map (fun (_, ms) -> Array.of_list (List.map acc ms)) images) in
  let images = zipped src images in
  fold_zipped ~probe src images
    (fun () i _ x regs verdicts ->
      let b = lazy { mem = X.behaviour (Lazy.force x); regs } in
      Array.iteri
        (fun j v ->
          let bs, counts = accs.(i).(j) in
          if v < 0 then bs := Lazy.force b :: !bs else counts.(v) <- counts.(v) + 1)
        verdicts)
    ();
  List.mapi
    (fun i ((p, models), zip) ->
      match zip with
      | Apart -> List.hd (pass ~probe p [ (p, models) ])
      | Same | Derived _ ->
          List.mapi
            (fun j (m : Axiom.Model.t) ->
              let bs, counts = accs.(i).(j) in
              let rejects = List.mapi (fun j (a : Axiom.Model.axiom) -> (a.name, counts.(j))) m.axioms in
              (m.name, (List.sort_uniq behaviour_compare !bs, if probe then rejects else [])))
            models)
    images

let behaviours_probed_many models p = List.hd (pass ~probe:true p [ (p, models) ])

(* Duplicate model names are served once. *)
let behaviours_many (models : Axiom.Model.t list) p =
  let named name (m : Axiom.Model.t) = String.equal m.name name in
  let first i (m : Axiom.Model.t) = List.find_index (named m.name) models = Some i in
  List.map
    (fun (name, (bs, _)) -> (name, bs))
    (List.hd (pass ~probe:false p [ (p, List.filteri first models) ]))

let behaviours m p = snd (List.hd (behaviours_many [ m ] p))
let cache_stats () = (0, Atomic.get passes)
let clear_caches () = Atomic.set passes 0

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
