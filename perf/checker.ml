(* The checker workloads: seeded [Litmus.Generate] corpora checked for
   refinement under the sound generated schemes, on a [Parallel.Pool]
   of [jobs] domains.  Every rep starts from cleared enumeration caches,
   because users pay enumeration on every sweep. *)

module En = Litmus.Enumerate
module Sw = Report.Sweep

(* Equal to nproc on the 2-core machine the sizes were chosen on; the
   pool itself never spawns more domains than the machine has cores. *)
let jobs = 2

(* Every check gets its own pool, as in [litmus_run], which generates
   its corpus before it creates its pool.  So no worker domain is alive
   during set-up: a parked one joins every stop-the-world minor
   collection, and with it set-up times swung by 60% from run to run. *)
let with_pool f = Parallel.Pool.with_pool ~jobs f

let programs ~scale = max 8 (Float.to_int (5000. *. scale))

(* litmus-journaled's corpus: small shapes, so verdicts need less
   enumeration and more generated programs collapse into one class. *)
let small_config =
  { Litmus.Generate.default_config with max_threads = 2; max_locs = 2; max_instrs = 3 }

let cells_of (entries : Sw.entry list) =
  List.concat_map
    (fun (e : Sw.entry) ->
      List.map
        (fun (program, src) ->
          {
            Mapping.Check.cell_scheme = e.Sw.scheme;
            cell_program = program;
            cell_f = e.Sw.f;
            cell_src_model = e.Sw.src_model;
            cell_tgt_model = e.Sw.tgt_model;
            cell_src = src;
          })
        e.Sw.corpus)
    entries

let failed_reports reports =
  List.length (List.filter (fun (r : Mapping.Check.report) -> not r.ok) reports)

(* ------------------------------------------------------------------ *)
(* Catalog gate: the hand-written [expected/catalog_verdicts.txt] lists
   the cells of [Report.Sweep.default_entries] that must fail; every
   other cell must hold. *)

let expected_failing =
  String.split_on_char '\n' Catalog_expected.text
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let catalog_gate () =
  let cells = cells_of (Sw.default_entries ()) in
  let reports = with_pool (fun pool -> Mapping.Check.check_cells ~pool cells) in
  let wrong =
    List.filter
      (fun (r : Mapping.Check.report) -> r.ok = List.mem r.name expected_failing)
      reports
  in
  List.iter
    (fun (r : Mapping.Check.report) ->
      Printf.eprintf "catalog gate: %s %s\n" r.name
        (if r.ok then "holds but is listed as failing" else "fails but is not listed"))
    wrong;
  let missing =
    List.filter
      (fun name -> not (List.exists (fun (r : Mapping.Check.report) -> r.name = name) reports))
      expected_failing
  in
  List.iter (Printf.eprintf "catalog gate: %s is listed but not in the sweep\n") missing;
  (List.length reports, List.length wrong + List.length missing)

(* The catalog gate, then one untimed warm-up rep whose generated
   verdicts are checked like a timed rep's. *)
let gates rep () =
  let attempted, failed = catalog_gate () in
  let r = rep () in
  (attempted + r.Workload.ops, failed + r.Workload.verify ())

(* ------------------------------------------------------------------ *)
(* Traced replays shared by both workloads.  They run sequentially on
   the calling domain over a deterministic sample of the corpus, so the
   layer times are single-domain CPU times, comparable across runs. *)

(* Every [sample_every]-th shape class: enough programs for steady
   rates, few enough to keep the traced run inside its budget. *)
let sample_every = 8

let sample_entries (entries : Sw.entry list) =
  List.map
    (fun (e : Sw.entry) ->
      { e with Sw.corpus = List.filteri (fun i _ -> i mod sample_every = 0) e.Sw.corpus })
    entries

(* The metric-name slug of each model the sound generated schemes use. *)
let model_slugs =
  [
    (Axiom.X86_tso.model.Axiom.Model.name, "x86_tso");
    (Axiom.Tcg_model.model.Axiom.Model.name, "tcg_ir");
    ((Axiom.Arm_cats.model Axiom.Arm_cats.Original).Axiom.Model.name, "arm_cats_orig");
    ((Axiom.Arm_cats.model Axiom.Arm_cats.Corrected).Axiom.Model.name, "arm_cats_fix");
  ]

(* The enumeration jobs [Mapping.Check.check_cells] plans for a cell
   list: each distinct program with every model a cell needs for it. *)
let plan (cells : Mapping.Check.cell list) =
  let jobs = Hashtbl.create 64 and order = ref [] in
  let need (m : Axiom.Model.t) p =
    match Hashtbl.find_opt jobs p with
    | Some ms ->
        if not (List.exists (fun (m' : Axiom.Model.t) -> m'.name = m.name) !ms) then
          ms := m :: !ms
    | None ->
        Hashtbl.add jobs p (ref [ m ]);
        order := p :: !order
  in
  List.iter
    (fun (c : Mapping.Check.cell) ->
      need c.cell_src_model c.cell_src;
      need c.cell_tgt_model (c.cell_f c.cell_src))
    cells;
  List.rev_map (fun p -> (p, List.rev !(Hashtbl.find jobs p))) !order

type axiom_acc = { mutable checked : int; mutable accepted : int; mutable a_ns : int }

(* Layer rates common to both workloads: generation and
   canonicalisation of the corpus, pruned enumeration per planned job,
   unpruned candidates and each model's axiom check per candidate, and
   (when [probe]) the unpruned coverage probe. *)
let replay_layers sp ~config ~seed ~n ~probe jobs =
  let a = Spans.acc sp in
  let generated =
    Spans.group sp "litmus.generate" (fun () -> Litmus.Generate.generate ?config ~seed n)
  in
  Spans.group sp "litmus.canonical" (fun () ->
      List.iter (fun p -> ignore (Litmus.Generate.canonical_string p)) generated);
  let a_enum = a "litmus.enumerate.behaviours_many" in
  En.clear_caches ();
  Spans.group sp "enumerate" (fun () ->
      List.iter
        (fun (p, models) ->
          ignore (Spans.time sp a_enum (fun () -> En.behaviours_many models p)))
        jobs);
  let a_cand = a "litmus.enumerate.candidates"
  and a_probe = a "litmus.enumerate.probe" in
  let axioms =
    List.map
      (fun (name, slug) -> (name, (slug, { checked = 0; accepted = 0; a_ns = 0 })))
      model_slugs
  in
  let candidates = ref 0 in
  Spans.group sp "axioms" (fun () ->
      List.iter
        (fun (p, models) ->
          let cands = Spans.time sp a_cand (fun () -> En.candidates p) in
          candidates := !candidates + List.length cands;
          List.iter
            (fun (m : Axiom.Model.t) ->
              match List.assoc_opt m.Axiom.Model.name axioms with
              | None -> ()
              | Some (_, acc) ->
                  List.iter
                    (fun (x, _) ->
                      let t0 = Stat.now_ns () in
                      let ok = m.consistent x in
                      acc.a_ns <- acc.a_ns + (Stat.now_ns () - t0);
                      acc.checked <- acc.checked + 1;
                      if ok then acc.accepted <- acc.accepted + 1)
                    cands)
            models)
        jobs);
  if probe then
    Spans.group sp "probe" (fun () ->
        List.iter
          (fun (p, models) ->
            List.iter
              (fun m ->
                ignore
                  (Spans.time sp a_probe (fun () ->
                       En.behaviours_probed ~on_reject:ignore m p)))
              models)
          jobs);
  let njobs = float_of_int (List.length jobs) in
  let us name calls = Stat.ratio (float_of_int (Spans.total_ns sp name)) calls /. 1e3 in
  [
    ("litmus.generate.us_per_program", us "litmus.generate" (float_of_int n));
    ("litmus.canonical.us_per_program", us "litmus.canonical" (float_of_int n));
    ( "litmus.enumerate.candidates_per_program",
      Stat.ratio (float_of_int !candidates) njobs );
    ("litmus.enumerate.us_per_program", us "litmus.enumerate.behaviours_many" njobs);
    ( "litmus.enumerate.probe_us_per_program",
      if probe then us "litmus.enumerate.probe" njobs else 0. );
  ]
  @ List.concat_map
      (fun (_, (slug, acc)) ->
        [
          ( "axiom." ^ slug ^ ".ns_per_candidate",
            Stat.ratio (float_of_int acc.a_ns) (float_of_int acc.checked) );
          ( "axiom." ^ slug ^ ".accept_ratio",
            Stat.ratio (float_of_int acc.accepted) (float_of_int acc.checked) );
        ])
      axioms

(* ------------------------------------------------------------------ *)
(* litmus-planned: the batch planner over a default-config corpus.     *)

let planned ~seed ~scale ~out:_ =
  let n = programs ~scale in
  let corpus, entries = Sw.generated_entries ~seed n in
  let cells = cells_of entries in
  (* The reports, with the chunks and domain count of the pool's batch. *)
  let check () =
    En.clear_caches ();
    with_pool (fun pool ->
        let reports = Mapping.Check.check_cells ~pool cells in
        (reports, Parallel.Pool.batch_stats pool, Parallel.Pool.workers_spawned pool + 1))
  in
  let rep () =
    let reports, _, _ = check () in
    { Workload.ops = List.length reports; verify = (fun () -> failed_reports reports) }
  in
  let traced sp =
    Gc.full_major ();
    let t0 = Stat.now_ns () in
    let reports, chunks, domains = Spans.group sp "mapping.check.check_cells" check in
    let e2e_ns = Stat.now_ns () - t0 in
    let hits, misses = En.cache_stats () in
    let chunk_us = List.map (fun c -> c.Parallel.Pool.c_us) chunks in
    let domains = float_of_int domains in
    let sample = cells_of (sample_entries entries) in
    let jobs = plan sample in
    En.clear_caches ();
    let t1 = Stat.now_ns () in
    ignore (Spans.group sp "sample.check_cells" (fun () -> Mapping.Check.check_cells sample));
    let check_ns = Stat.now_ns () - t1 in
    let layers = replay_layers sp ~config:None ~seed ~n ~probe:false jobs in
    let enum_ns = Spans.total_ns sp "litmus.enumerate.behaviours_many" in
    let verdicts = float_of_int (List.length sample) in
    let metrics =
      layers
      @ [
          ("litmus.generate.dedup_ratio", Litmus.Generate.dedup_ratio corpus);
          ( "litmus.enumerate.cache_hit_ratio",
            Stat.ratio (float_of_int hits) (float_of_int (hits + misses)) );
          ( "mapping.check.self_us_per_verdict",
            Stat.ratio (float_of_int (check_ns - enum_ns)) verdicts /. 1e3 );
          ( "parallel.pool.busy_ratio",
            Stat.ratio (List.fold_left ( +. ) 0. chunk_us)
              (domains *. float_of_int e2e_ns /. 1e3) );
          ("parallel.pool.chunks", float_of_int (List.length chunks));
          ("parallel.pool.chunk_us_max", List.fold_left max 0. chunk_us);
        ]
    in
    {
      Workload.metrics;
      self_s =
        [
          ("litmus.enumerate (sample)", float_of_int enum_ns *. 1e-9);
          ("mapping.check (self, sample)", float_of_int (check_ns - enum_ns) *. 1e-9);
        ];
      table_s = float_of_int check_ns *. 1e-9;
      traced_s = float_of_int e2e_ns *. 1e-9;
      failed = failed_reports reports;
    }
  in
  { Workload.rep; gates = gates rep; traced }

(* ------------------------------------------------------------------ *)
(* litmus-journaled: the report-mode path of [litmus_run --generate]
   without the HTML render: journaled shards of 500, witness capture,
   the unpruned coverage probe on both sides, a fresh journal per rep. *)

let shard_size = 500

let remove path =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ path; path ^ ".tmp" ]

(* Append [records] to a fresh journal at [path] and checkpoint it, as
   the sweep does; returns the append and checkpoint times in ns. *)
let replay_journal sp path records =
  remove path;
  let a_append = Spans.acc sp "parallel.frontier.append"
  and a_ckpt = Spans.acc sp "parallel.frontier.checkpoint" in
  Spans.group sp "parallel.frontier" @@ fun () ->
  let fr, _ = Parallel.Frontier.open_ path in
  let t0 = Stat.now_ns () in
  List.iter
    (fun (key, value) ->
      Spans.time sp a_append (fun () -> Parallel.Frontier.append fr ~key ~value))
    records;
  let t1 = Stat.now_ns () in
  Spans.time sp a_ckpt (fun () -> Parallel.Frontier.checkpoint fr records);
  let t2 = Stat.now_ns () in
  Parallel.Frontier.close fr;
  remove path;
  (t1 - t0, t2 - t1)

let journaled ~seed ~scale ~out =
  let n = programs ~scale in
  let config = Some small_config in
  let corpus, entries = Sw.generated_entries ?config ~seed n in
  let journal = Filename.concat out "journal" in
  let sweep ?pool entries =
    remove journal;
    En.clear_caches ();
    let coverage = Report.Coverage.create () in
    let g =
      Sw.run_generated ~capture:true ~coverage ?pool ~shard_size ~probe_targets:true ~journal
        entries
    in
    g.Sw.gen_journaled
  in
  let failed (j : Sw.journaled) =
    List.length j.Sw.failures
    + List.length
        (List.filter (fun (c : Sw.cell) -> not c.Sw.report.Mapping.Check.ok) j.Sw.cells)
  in
  let verdicts (j : Sw.journaled) = List.length j.Sw.cells + List.length j.Sw.failures in
  let rep () =
    let j = with_pool (fun pool -> sweep ~pool entries) in
    {
      Workload.ops = verdicts j;
      verify =
        (fun () ->
          remove journal;
          failed j + (if j.Sw.replayed = 0 then 0 else verdicts j));
    }
  in
  let traced sp =
    let a = Spans.acc sp in
    Gc.full_major ();
    let t0 = Stat.now_ns () in
    let j =
      Spans.group sp "report.sweep.run_generated" (fun () ->
          with_pool (fun pool -> sweep ~pool entries))
    in
    let e2e_ns = Stat.now_ns () - t0 in
    let hits, misses = En.cache_stats () in
    let bytes = (Unix.stat journal).Unix.st_size in
    let records = (Parallel.Frontier.recover_file journal).Parallel.Frontier.entries in
    let scratch = Filename.concat out "journal.replay" in
    let append_ns, checkpoint_ns = replay_journal sp scratch records in
    remove journal;
    (* Sequential sample: the sweep itself, then its parts. *)
    let sample = sample_entries entries in
    let sample_cells =
      List.concat_map
        (fun (e : Sw.entry) -> List.map (fun (program, src) -> (e, program, src)) e.Sw.corpus)
        sample
    in
    let nsample = float_of_int (List.length sample_cells) in
    let t1 = Stat.now_ns () in
    ignore (Spans.group sp "sample.run_generated" (fun () -> sweep sample));
    let sweep_ns = Stat.now_ns () - t1 in
    let sample_records =
      (Parallel.Frontier.recover_file journal).Parallel.Frontier.entries
    in
    remove journal;
    let a_refines = a "mapping.check.refines" and a_beh = a "litmus.enumerate.behaviours" in
    En.clear_caches ();
    Spans.group sp "refines" (fun () ->
        List.iter
          (fun ((e : Sw.entry), _, src) ->
            ignore
              (Spans.time sp a_refines (fun () ->
                   Mapping.Check.refines ~src_model:e.Sw.src_model ~tgt_model:e.Sw.tgt_model
                     ~src ~tgt:(e.Sw.f src))))
          sample_cells);
    En.clear_caches ();
    Spans.group sp "behaviours" (fun () ->
        List.iter
          (fun ((e : Sw.entry), _, src) ->
            let tgt = e.Sw.f src in
            Spans.time sp a_beh (fun () ->
                ignore (En.behaviours e.Sw.src_model src);
                ignore (En.behaviours e.Sw.tgt_model tgt)))
          sample_cells);
    let a_cell_probe = a "report.sweep.probe" in
    Spans.group sp "cell probes" (fun () ->
        List.iter
          (fun ((e : Sw.entry), _, src) ->
            let tgt = e.Sw.f src in
            Spans.time sp a_cell_probe (fun () ->
                ignore (En.behaviours_probed ~on_reject:ignore e.Sw.src_model src);
                ignore (En.behaviours_probed ~on_reject:ignore e.Sw.tgt_model tgt)))
          sample_cells);
    let sample_frontier_ns =
      let append, checkpoint = replay_journal sp scratch sample_records in
      append + checkpoint
    in
    let jobs = plan (cells_of sample) in
    let layers = replay_layers sp ~config ~seed ~n ~probe:true jobs in
    let ns name = Spans.total_ns sp name in
    let refines_ns = ns "mapping.check.refines"
    and beh_ns = ns "litmus.enumerate.behaviours" in
    let probe_ns = ns "report.sweep.probe" in
    let sweep_self = sweep_ns - refines_ns - probe_ns - sample_frontier_ns in
    let nrec = float_of_int (List.length records) in
    let metrics =
      layers
      @ [
          ("litmus.generate.dedup_ratio", Litmus.Generate.dedup_ratio corpus);
          ( "litmus.enumerate.cache_hit_ratio",
            Stat.ratio (float_of_int hits) (float_of_int (hits + misses)) );
          ( "mapping.check.self_us_per_verdict",
            Stat.ratio (float_of_int (refines_ns - beh_ns)) nsample /. 1e3 );
          ( "parallel.frontier.append_us_per_verdict",
            Stat.ratio (float_of_int append_ns) nrec /. 1e3 );
          ("parallel.frontier.checkpoint_ms", float_of_int checkpoint_ns /. 1e6);
          ("parallel.frontier.bytes_per_verdict", Stat.ratio (float_of_int bytes) nrec);
          ( "report.sweep.self_us_per_verdict",
            Stat.ratio (float_of_int sweep_self) nsample /. 1e3 );
        ]
    in
    {
      Workload.metrics;
      self_s =
        List.map
          (fun (name, x) -> (name, float_of_int x *. 1e-9))
          [
            ("litmus.enumerate (sample)", beh_ns);
            ("mapping.check (self, sample)", refines_ns - beh_ns);
            ("coverage probe (sample)", probe_ns);
            ("parallel.frontier (sample)", sample_frontier_ns);
            ("report.sweep (self, sample)", sweep_self);
          ];
      table_s = float_of_int sweep_ns *. 1e-9;
      traced_s = float_of_int e2e_ns *. 1e-9;
      failed = failed j;
    }
  in
  { Workload.rep; gates = gates rep; traced }

let workloads =
  [
    { Workload.name = "litmus-planned"; setup = planned };
    { Workload.name = "litmus-journaled"; setup = journaled };
  ]
