module En = Litmus.Enumerate
module X = Axiom.Execution

type entry = {
  scheme : string;
  f : Litmus.Ast.prog -> Litmus.Ast.prog;
  src_model : Axiom.Model.t;
  tgt_model : Axiom.Model.t;
  corpus : (string * Litmus.Ast.prog) list;
}

type cell = {
  scheme : string;
  program : string;
  report : Mapping.Check.report;
  witnesses : Mapping.Witness.t list;
  shrunk : Litmus.Ast.prog option;
}

let mapping_entries () =
  let open Mapping.Schemes in
  let x86 = Axiom.X86_tso.model in
  let tcg = Axiom.Tcg_model.model in
  let arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original in
  let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected in
  let rmw2_fe, rmw2_be = risotto_rmw2_preset in
  let casal_fe, casal_be = risotto_casal_preset in
  let qemu_fe, qemu_be = qemu_preset in
  let mk scheme f src_model tgt_model =
    { scheme; f; src_model; tgt_model; corpus = Litmus.Catalog.mapping_corpus }
  in
  [
    mk "fig7a/x86->tcg" (x86_to_tcg Risotto_frontend) x86 tcg;
    mk "fig2/x86->tcg" (x86_to_tcg Qemu_frontend) x86 tcg;
    mk "qemu-gcc10/arm-fix" (x86_to_arm qemu_fe qemu_be) x86 arm_fix;
    mk "qemu-gcc9/arm-fix"
      (x86_to_arm Qemu_frontend (backend Qemu_frontend Helper_gcc9))
      x86 arm_fix;
    mk "risotto-rmw2/arm-orig" (x86_to_arm rmw2_fe rmw2_be) x86 arm_orig;
    mk "risotto-rmw2/arm-fix" (x86_to_arm rmw2_fe rmw2_be) x86 arm_fix;
    mk "risotto-casal/arm-orig" (x86_to_arm casal_fe casal_be) x86 arm_orig;
    mk "risotto-casal/arm-fix" (x86_to_arm casal_fe casal_be) x86 arm_fix;
    mk "armcats-direct/arm-orig" x86_to_arm_direct_armcats x86 arm_orig;
    mk "armcats-direct/arm-fix" x86_to_arm_direct_armcats x86 arm_fix;
    mk "no-fences/arm-fix"
      (x86_to_arm No_fences_frontend (backend No_fences_frontend Risotto_rmw1))
      x86 arm_fix;
  ]

(* The mapping schemes plus the paper's §3.2 FMR counterexample as a
   pseudo-scheme: FMR is an IR transformation bug, not a mapping bug,
   but its refinement check has the same shape — source and target are
   both TCG programs, the "mapping" is one application of the unsound
   RAW rewrite. *)
let default_entries () =
  let tcg = Axiom.Tcg_model.model in
  let apply_raw p =
    match Mapping.Transform.applications Mapping.Transform.Raw p with
    | t :: _ -> t
    | [] -> p
  in
  mapping_entries ()
  @ [
      {
        scheme = "transform-raw";
        f = apply_raw;
        src_model = tcg;
        tgt_model = tcg;
        corpus = [ ("FMR", Litmus.Catalog.fmr_tcg_src) ];
      };
    ]

let all_ok cells = List.for_all (fun c -> c.report.Mapping.Check.ok) cells
let failing cells = List.filter (fun c -> not c.report.Mapping.Check.ok) cells

(* ------------------------------------------------------------------ *)
(* JSON artifacts *)

let json_of_behaviour (b : En.behaviour) =
  Json.Obj
    [
      ( "mem",
        Json.List
          (List.map
             (fun (loc, v) ->
               Json.Obj [ ("loc", Json.String loc); ("value", Json.Int v) ])
             b.En.mem) );
      ( "regs",
        Json.List
          (List.map
             (fun ((tid, reg), v) ->
               Json.Obj
                 [
                   ("tid", Json.Int tid);
                   ("reg", Json.String reg);
                   ("value", Json.Int v);
                 ])
             b.En.regs) );
    ]

let json_of_rel r =
  Json.List
    (List.map
       (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ])
       (Relalg.Rel.to_list r))

let json_of_execution (x : X.t) =
  Json.Obj
    [
      ( "events",
        Json.List
          (List.map
             (fun (e : Axiom.Event.t) ->
               Json.Obj
                 [
                   ("id", Json.Int e.Axiom.Event.id);
                   ("tid", Json.Int e.Axiom.Event.tid);
                   ( "label",
                     Json.String
                       (Format.asprintf "%a" Axiom.Event.pp_label
                          e.Axiom.Event.label) );
                 ])
             (List.sort
                (fun (a : Axiom.Event.t) b ->
                  compare a.Axiom.Event.id b.Axiom.Event.id)
                x.X.events)) );
      ("po", json_of_rel x.X.po);
      ("rf", json_of_rel x.X.rf);
      ("co", json_of_rel x.X.co);
      ("fr", json_of_rel (X.fr x));
    ]

let json_of_verdict = function
  | Axiom.Explain.Consistent ->
      Json.Obj [ ("consistent", Json.Bool true) ]
  | Axiom.Explain.Violates { axiom; cycle } ->
      Json.Obj
        [
          ("axiom", Json.String axiom);
          ("cycle", Json.List (List.map (fun i -> Json.Int i) cycle));
        ]

(* Witness artifact envelope: same leading fields as the BENCH_*.json
   envelope, so one schema check covers both artifact families. *)
let witness_json (c : cell) (w : Mapping.Witness.t) =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("section", Json.String "witness");
      ("scheme", Json.String c.scheme);
      ("program", Json.String c.program);
      ("behaviour", json_of_behaviour w.Mapping.Witness.behaviour);
      ("target", json_of_execution w.Mapping.Witness.target);
      ( "forbidden",
        match w.Mapping.Witness.forbidden with
        | Some x -> json_of_execution x
        | None -> Json.Null );
      ( "violations",
        Json.List (List.map json_of_verdict w.Mapping.Witness.violations) );
      ( "nearest_behaviour",
        match w.Mapping.Witness.nearest with
        | Some (_, b) -> json_of_behaviour b
        | None -> Json.Null );
      ( "shrunk_instructions",
        match c.shrunk with
        | Some p -> Json.Int (Mapping.Witness.instruction_count p)
        | None -> Json.Null );
    ]

(* ------------------------------------------------------------------ *)
(* Journal records.

   With a journal, each completed (scheme, program) cell appends one
   record to a {!Parallel.Frontier}: key = scheme ^ "\x1f" ^ program,
   value = the JSON-encoded verdict plus the cell's coverage deltas. *)

let cell_key scheme program = scheme ^ "\x1f" ^ program

(* -------- verdict record codec -------- *)

exception Bad_record of string

let jfail fmt = Printf.ksprintf (fun m -> raise (Bad_record m)) fmt
let jint = function Json.Int n -> n | _ -> jfail "expected int"
let jstr = function Json.String s -> s | _ -> jfail "expected string"
let jbool = function Json.Bool b -> b | _ -> jfail "expected bool"
let jlist = function Json.List l -> l | _ -> jfail "expected list"

let jfield name j =
  match Json.member name j with
  | Some v -> v
  | None -> jfail "missing field %S" name

let behaviour_of_json j =
  {
    En.mem =
      List.map
        (fun m -> (jstr (jfield "loc" m), jint (jfield "value" m)))
        (jlist (jfield "mem" j));
    En.regs =
      List.map
        (fun r ->
          ( (jint (jfield "tid" r), jstr (jfield "reg" r)),
            jint (jfield "value" r) ))
        (jlist (jfield "regs" j));
  }

let verdict_record (r : Mapping.Check.report)
    (deltas : (Coverage.key * int) list) =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool r.Mapping.Check.ok);
         ("src_behaviours", Json.Int r.Mapping.Check.src_behaviours);
         ("tgt_behaviours", Json.Int r.Mapping.Check.tgt_behaviours);
         ( "extra",
           Json.List (List.map json_of_behaviour r.Mapping.Check.extra) );
         ( "cov",
           Json.List
             (List.map
                (fun ((k : Coverage.key), n) ->
                  Json.Obj
                    [
                      ("model", Json.String k.Coverage.model);
                      ("axiom", Json.String k.Coverage.axiom);
                      ("count", Json.Int n);
                    ])
                deltas) );
       ])

let verdict_of_string ~scheme ~program s =
  match Json.of_string s with
  | Error msg -> jfail "unparsable verdict record: %s" msg
  | Ok j ->
      let report =
        {
          Mapping.Check.name = Printf.sprintf "%s: %s" scheme program;
          ok = jbool (jfield "ok" j);
          src_behaviours = jint (jfield "src_behaviours" j);
          tgt_behaviours = jint (jfield "tgt_behaviours" j);
          extra = List.map behaviour_of_json (jlist (jfield "extra" j));
        }
      in
      let deltas =
        List.map
          (fun d ->
            ( {
                Coverage.scheme;
                program;
                model = jstr (jfield "model" d);
                axiom = jstr (jfield "axiom" d);
              },
              jint (jfield "count" d) ))
          (jlist (jfield "cov" j))
      in
      (report, deltas)

(* ------------------------------------------------------------------ *)
(* Generated corpora *)

let default_generated_schemes =
  [ "fig7a/x86->tcg"; "risotto-rmw2/arm-orig"; "risotto-rmw2/arm-fix" ]

let generated_entries ?config ?(schemes = default_generated_schemes) ~seed n =
  let c = Litmus.Generate.corpus ?config ~seed n in
  let corpus =
    List.map
      (fun (cl : Litmus.Generate.cls) -> (cl.cls_name, cl.cls_rep))
      c.classes
  in
  let entries =
    List.filter_map
      (fun (e : entry) ->
        if List.mem e.scheme schemes then Some { e with corpus } else None)
      (default_entries ())
  in
  (c, entries)

(* ------------------------------------------------------------------ *)
(* The sweep runner.

   It plans before computing: the cells the journal does not hold need
   their schemes applied (supervised pool tasks, minus the pool-task
   chaos) and their source and target programs, and
   [Mapping.Check.plan] groups those needs into one job per distinct
   program.  A probed job makes one unpruned pass that serves all of
   its models' behaviours and rejection counts; any other job is one
   [En.behaviours_many].

   Cells are then processed in fixed-size shards, each in three steps:

   + the jobs the shard's cells need that no earlier shard completed,
     as one {!Parallel.Supervise.map} batch.  Completed jobs stay in
     the sweep-local table, so later shards only assemble reports; a
     failed job stays pending for the next shard or resume that needs
     it.  The table is written between batches, on the calling domain
     only, so pool and sequential runs agree byte for byte;
   + one pool map over the shard's cells: each task assembles its
     cell's report and coverage deltas and, with a journal, encodes
     and frames its verdict record (replayed cells are framed too, for
     the checkpoint);
   + a short serial tail: the computed cells' records are appended in
     cell order and flushed once, then the coverage deltas are merged
     and failing cells decorated, in cell order.

   The shard is the unit of crash-resumability, the job the unit of
   supervised work, the cell the unit of verdict identity and failure
   reporting.  The checkpoint at the end writes the framed records
   again, without re-encoding them.

   Witnesses and shrunk counterexamples are {e not} journaled: they are
   a deterministic function of (scheme, program) and are recomputed for
   failing cells on both the compute and the replay path, which is what
   makes a resumed report byte-identical to an uninterrupted one.

   Per shard, the runner counts the (model, axiom) coverage pairs no
   earlier shard discovered; when late shards stop contributing, the
   corpus has saturated the discriminating-axiom coverage. *)

type journaled = {
  cells : cell list;
  failures : (string * string * Parallel.Supervise.failure) list;
  replayed : int;
  computed : int;
  recovery : Parallel.Frontier.recovery;
}

type shard_stat = {
  shard_index : int;  (* 1-based *)
  shard_cells : int;
  shard_new_pairs : int;  (* (model, axiom) pairs first seen in this shard *)
}

type generated = {
  gen_journaled : journaled;
  gen_shards : shard_stat list;
  gen_saturated_after : int option;
      (* [Some s]: no shard after the [s]th discovered a new
         (model, axiom) pair.  [None]: still discovering in the final
         shard (or no coverage requested). *)
}

(* Per model of a job: its behaviours and, for a probed job, its
   rejected candidates counted by discriminating axiom. *)
type job_result = (string * (En.behaviour list * (string * int) list)) list

let run_job (j : Mapping.Check.job) : job_result =
  if not j.job_probed then
    List.map
      (fun (m, bs) -> (m, (bs, [])))
      (En.behaviours_many j.job_models j.job_prog)
  else
    List.map
      (fun (name, (bs, rejects)) -> (name, (bs, List.filter (fun (_, n) -> n > 0) rejects)))
      (En.behaviours_probed_many j.job_models j.job_prog)

(* A planned job in the sweep-local table: [None] until an attempt
   ends, then its latest outcome; [batch] is the last shard that
   scheduled it. *)
type job_state = {
  job : Mapping.Check.job;
  mutable outcome : (job_result, Parallel.Supervise.failure) result option;
  mutable batch : int;
}

type work =
  | Replay of Mapping.Check.report * (Coverage.key * int) list * string
      (** decoded journal record, and its raw value *)
  | Scheme_failed of Parallel.Supervise.failure  (** the scheme raised *)
  | Compute of job_state * job_state  (** source and target jobs *)

(* A cell after the shard's pool map: its verdict and deltas, and its
   framed record when the sweep is journaled. *)
type finished =
  | Replayed of Mapping.Check.report * (Coverage.key * int) list * Parallel.Frontier.framed option
  | Computed of Mapping.Check.report * (Coverage.key * int) list * Parallel.Frontier.framed option
  | Failed of Parallel.Supervise.failure

(* One cell's coverage deltas from its sides' (model, axiom counts):
   keyed, sorted as [Coverage.counts] sorts, a model both sides share
   summed. *)
let cell_deltas ~scheme ~program sides =
  let rec sum = function
    | (k, a) :: (k', b) :: rest when k = k' -> sum ((k, a + b) :: rest)
    | d :: rest -> d :: sum rest
    | [] -> []
  in
  List.concat_map
    (fun (model, counts) ->
      List.map
        (fun (axiom, n) -> ({ Coverage.scheme; program; model; axiom }, n))
        counts)
    sides
  |> List.sort compare |> sum

let rec take_split n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let h, t = take_split (n - 1) rest in
        (x :: h, t)

let no_recovery =
  { Parallel.Frontier.entries = []; valid = 0; dropped_bytes = 0 }

let run_generated ?(capture = false) ?coverage ?max_witnesses
    ?(policy = Parallel.Supervise.default) ?pool ?(shard_size = 1)
    ?(probe_targets = false) ?journal_chaos ?journal entries =
  let fr, recovery =
    match journal with
    | None -> (None, no_recovery)
    | Some path ->
        let fr, recovery = Parallel.Frontier.open_ ?chaos:journal_chaos path in
        (Some fr, recovery)
  in
  (* A torn append (chaos or a real I/O error) must not leak the
     journal's descriptor. *)
  Fun.protect ~finally:(fun () -> Option.iter Parallel.Frontier.close fr)
  @@ fun () ->
  (* Last record wins, as checkpoint compaction would decide. *)
  let verdicts = Hashtbl.create 1024 in
  List.iter
    (fun (k, v) -> Hashtbl.replace verdicts k v)
    recovery.Parallel.Frontier.entries;
  let probe_src = Option.is_some coverage in
  let probe_tgt = probe_src && probe_targets in
  (* Plan.  Each cell is replayable from the journal, or its scheme is
     applied and it needs two jobs.  A record the CRC accepted but the
     codec cannot read (e.g. written by an older build) is dropped and
     its cell recomputed. *)
  let looked_up =
    List.concat_map
      (fun (e : entry) ->
        List.map
          (fun (program, src) ->
            let key = cell_key e.scheme program in
            let replay =
              match Hashtbl.find_opt verdicts key with
              | None -> None
              | Some v -> (
                  match verdict_of_string ~scheme:e.scheme ~program v with
                  | report, deltas -> Some (Replay (report, deltas, v))
                  | exception Bad_record _ -> None)
            in
            ((e, program, src), key, replay))
          e.corpus)
      entries
  in
  (* The schemes run supervised like jobs, minus the pool-task chaos; a
     scheme that raises fails its cell alone. *)
  let transformed =
    Parallel.Supervise.map ?pool
      { policy with chaos = None }
      (fun ((e : entry), _, src) -> e.f src)
      (List.filter_map
         (fun (c, _, replay) -> if Option.is_none replay then Some c else None)
         looked_up)
  in
  let _, classified =
    List.fold_left_map
      (fun transformed (c, key, replay) ->
        match (replay, transformed) with
        | Some r, _ -> (transformed, (c, key, `Done r))
        | None, t :: rest -> (rest, (c, key, `Transformed t))
        | None, [] -> assert false (* one result per cell to transform *))
      transformed looked_up
  in
  let jobs, indices =
    Mapping.Check.plan
      (List.filter_map
         (function
           | ((e : entry), _, src), _, `Transformed (Ok tgt) ->
               Some ((src, e.src_model, probe_src), (tgt, e.tgt_model, probe_tgt))
           | _ -> None)
         classified)
  in
  let states = Array.map (fun job -> { job; outcome = None; batch = 0 }) jobs in
  let _, prepared =
    List.fold_left_map
      (fun indices (c, key, work) ->
        match (work, indices) with
        | `Done r, _ -> (indices, (c, key, r))
        | `Transformed (Ok _), (s, t) :: rest -> (rest, (c, key, Compute (states.(s), states.(t))))
        | `Transformed (Ok _), [] -> assert false (* one pair per transformed cell *)
        | `Transformed (Error f), _ -> (indices, (c, key, Scheme_failed f)))
      indices classified
  in
  let replayed = ref 0 and computed = ref 0 in
  let failures = ref [] and written = ref [] in
  let seen_pairs = Hashtbl.create 64 in
  let new_pairs = ref 0 in
  (* Coverage merged exactly once per completed cell, and the pairs no
     earlier shard saw counted for the saturation verdict. *)
  let merge_deltas deltas =
    (match coverage with
    | None -> ()
    | Some cov -> List.iter (fun (k, n) -> Coverage.add cov k n) deltas);
    List.iter
      (fun ((k : Coverage.key), _) ->
        let pair = (k.Coverage.model, k.Coverage.axiom) in
        if not (Hashtbl.mem seen_pairs pair) then begin
          Hashtbl.add seen_pairs pair ();
          incr new_pairs
        end)
      deltas
  in
  let decorate ((e : entry), program, src) report =
    let witnesses, shrunk =
      if capture && not report.Mapping.Check.ok then
        ( Mapping.Witness.capture ?max_witnesses ~src_model:e.src_model
            ~tgt_model:e.tgt_model ~src ~tgt:(e.f src) report,
          Some
            (Mapping.Witness.shrink ~scheme:e.f ~src_model:e.src_model
               ~tgt_model:e.tgt_model src) )
      else ([], None)
    in
    { scheme = e.scheme; program; report; witnesses; shrunk }
  in
  let assemble ((e : entry), program, _) rs rt =
    let bs, src_counts = List.assoc e.src_model.Axiom.Model.name rs in
    let bt, tgt_counts = List.assoc e.tgt_model.Axiom.Model.name rt in
    let report =
      Mapping.Check.assemble ~scheme:e.scheme ~program ~src:bs ~tgt:bt
    in
    let deltas =
      if not probe_src then []
      else
        cell_deltas ~scheme:e.scheme ~program
          ((e.src_model.Axiom.Model.name, src_counts)
          :: (if probe_tgt then [ (e.tgt_model.Axiom.Model.name, tgt_counts) ]
              else []))
    in
    (report, deltas)
  in
  let frame key v =
    if Option.is_some fr then Some (Parallel.Frontier.frame ~key ~value:(v ())) else None
  in
  (* Step 2 of a shard, one pool task per cell. *)
  let finish (c, key, work) =
    match work with
    | Replay (report, deltas, v) -> Replayed (report, deltas, frame key (fun () -> v))
    | Scheme_failed f -> Failed f
    | Compute (s, t) -> (
        match (s.outcome, t.outcome) with
        | Some (Ok rs), Some (Ok rt) ->
            let report, deltas = assemble c rs rt in
            Computed (report, deltas, frame key (fun () -> verdict_record report deltas))
        | Some (Error f), _ | _, Some (Error f) -> Failed f
        | None, _ | _, None -> assert false (* scheduled by the shard *))
  in
  let run_shard idx shard =
    (* The shard's batch: the jobs its cells need that no earlier shard
       completed, in first-need order. *)
    let batch = ref [] in
    let schedule s =
      match s.outcome with
      | Some (Ok _) -> ()
      | _ ->
          if s.batch <> idx then begin
            s.batch <- idx;
            batch := s :: !batch
          end
    in
    List.iter
      (function
        | _, _, Compute (s, t) ->
            schedule s;
            schedule t
        | _ -> ())
      shard;
    let batch = List.rev !batch in
    if batch <> [] then
      List.iter2
        (fun s r -> s.outcome <- Some r)
        batch
        (Parallel.Supervise.map ?pool policy (fun s -> run_job s.job) batch);
    let finished = Parallel.Pool.map_list ?pool finish shard in
    (* The serial tail.  Journal before merging: if an append tears
       (chaos or crash), the shard's cells are simply recomputed on
       resume — verdicts are never lost, never doubled. *)
    Option.iter
      (fun fr ->
        List.iter
          (function
            | Computed (_, _, Some r) -> Parallel.Frontier.append_framed fr r
            | _ -> ())
          finished;
        Parallel.Frontier.flush fr)
      fr;
    let keep c report deltas r =
      Option.iter (fun r -> written := r :: !written) r;
      merge_deltas deltas;
      Some (decorate c report)
    in
    List.filter_map Fun.id
      (List.map2
         (fun ((((e : entry), program, _) as c), _, _) -> function
           | Failed f ->
               (* No journal record: a resumed run retries the cell, so
                  a transient environment converges to the fault-free
                  verdict table. *)
               failures := (e.scheme, program, f) :: !failures;
               None
           | Replayed (report, deltas, r) ->
               incr replayed;
               keep c report deltas r
           | Computed (report, deltas, r) ->
               incr computed;
               keep c report deltas r)
         shard finished)
  in
  let rec shard_loop idx cells_acc stats_acc = function
    | [] -> (List.concat (List.rev cells_acc), List.rev stats_acc)
    | rest ->
        let shard, rest = take_split (max 1 shard_size) rest in
        new_pairs := 0;
        let cells = run_shard idx shard in
        let stat =
          {
            shard_index = idx;
            shard_cells = List.length shard;
            shard_new_pairs = !new_pairs;
          }
        in
        shard_loop (idx + 1) (cells :: cells_acc) (stat :: stats_acc) rest
  in
  let cells, shard_stats = shard_loop 1 [] [] prepared in
  (* Compact: one record per cell, canonical sweep order — a journal
     grown across many interrupted runs shrinks back to its minimum. *)
  Option.iter
    (fun fr -> Parallel.Frontier.checkpoint_framed fr (List.rev !written))
    fr;
  let nshards = List.length shard_stats in
  let saturated_after =
    match coverage with
    | None -> None
    | Some _ ->
        let last_new =
          List.fold_left
            (fun acc s -> if s.shard_new_pairs > 0 then s.shard_index else acc)
            0 shard_stats
        in
        if last_new < nshards then Some last_new else None
  in
  {
    gen_journaled =
      {
        cells;
        failures = List.rev !failures;
        replayed = !replayed;
        computed = !computed;
        recovery;
      };
    gen_shards = shard_stats;
    gen_saturated_after = saturated_after;
  }
