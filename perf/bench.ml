(* The harness: seeded set-up, correctness gates, timed reps, the
   optional traced rep, and the run's output.  The metric tables below
   are the single source of the names BENCHMARK.json lists; the smoke
   test checks the two agree. *)

(* End-to-end metrics.  Every workload reports each one.  An "op" is one
   executed guest block on the DBT workloads (translation included) and
   one (scheme, program) verdict on the checker workloads.

   - ops_per_s: the best timed rep's throughput.  The machines this runs
     on slow down by up to a fifth for a minute at a time; the best rep
     of a run filters most of that, its median does not (README.md has
     the measurements).
   - minor_words_per_op: median over the timed reps, all domains.
   - live_heap_mb: the heap still reachable right after the first timed
     rep, while its engines (code caches) or verdict caches are held.
     Unlike the peak heap, it does not depend on when two domains' GC
     cycles happen to run.
   - setup_s: median over the set-ups, which are spread over the run
     (see [run]). *)
let end_to_end =
  [
    ("ops_per_s", "ops/s");
    ("minor_words_per_op", "words/op");
    ("live_heap_mb", "MB");
    ("setup_s", "s");
  ]

(* Per-layer metrics, from the traced rep.  A layer a workload does not
   exercise reads 0 there. *)
let per_layer =
  [
    ("x86.decode.ns_per_insn", "ns/insn");
    ("core.frontend.us_per_block", "us/block");
    ("core.frontend.tcg_ops_per_block", "ops/block");
    ("tcg.const_fold.us_per_block", "us/block");
    ("tcg.dce.us_per_block", "us/block");
    ("tcg.mem_elim.us_per_block", "us/block");
    ("tcg.fence_merge.us_per_block", "us/block");
    ("tcg.pipeline.ops_out_per_block", "ops/block");
    ("tcg.pipeline.ledger_us_per_block", "us/block");
    ("tcg.fence_merge.removed_ratio", "ratio");
    ("core.backend.us_per_block", "us/block");
    ("core.backend.arm_insns_per_block", "insns/block");
    ("core.backend.dmbs_per_block", "dmbs/block");
    ("core.engine.translate_self_us_per_block", "us/block");
    ("core.engine.dispatch_self_ns_per_block", "ns/block");
    ("core.engine.dispatch_minor_words_per_block", "words/block");
    ("core.tbchain.chain_hit_ratio", "ratio");
    ("core.tbchain.jcache_hit_ratio", "ratio");
    ("core.tbchain.table_hit_ratio", "ratio");
    ("arm.machine.ns_per_block", "ns/block");
    ("arm.machine.ns_per_host_insn", "ns/insn");
    ("arm.machine.minor_words_per_block", "words/block");
    ("arm.machine.model_cycles_per_block", "cycles/block");
    ("memsys.mem.accesses_per_block", "accesses/block");
    ("memsys.mem.ns_per_access", "ns/access");
    ("memsys.mem.minor_words_per_access", "words/access");
    ("tcg.interp.ns_per_block", "ns/block");
    ("tcg.interp.minor_words_per_block", "words/block");
    ("litmus.generate.us_per_program", "us/program");
    ("litmus.canonical.us_per_program", "us/program");
    ("litmus.generate.dedup_ratio", "ratio");
    ("litmus.enumerate.candidates_per_program", "cands/program");
    ("litmus.enumerate.us_per_program", "us/program");
    ("litmus.enumerate.cache_hit_ratio", "ratio");
    ("litmus.enumerate.probe_us_per_program", "us/program");
    ("axiom.x86_tso.ns_per_candidate", "ns/cand");
    ("axiom.x86_tso.accept_ratio", "ratio");
    ("axiom.tcg_ir.ns_per_candidate", "ns/cand");
    ("axiom.tcg_ir.accept_ratio", "ratio");
    ("axiom.arm_cats_orig.ns_per_candidate", "ns/cand");
    ("axiom.arm_cats_orig.accept_ratio", "ratio");
    ("axiom.arm_cats_fix.ns_per_candidate", "ns/cand");
    ("axiom.arm_cats_fix.accept_ratio", "ratio");
    ("mapping.check.self_us_per_verdict", "us/verdict");
    ("parallel.pool.busy_ratio", "ratio");
    ("parallel.pool.chunks", "count");
    ("parallel.pool.chunk_us_max", "us");
    ("parallel.frontier.append_us_per_verdict", "us/verdict");
    ("parallel.frontier.checkpoint_ms", "ms");
    ("parallel.frontier.bytes_per_verdict", "B/verdict");
    ("report.sweep.self_us_per_verdict", "us/verdict");
    ("trace_overhead_pct", "%");
    ("trace_unattributed_share", "ratio");
  ]

let workloads = Dbt.workloads @ Checker.workloads

type opts = {
  workload : string;
  seed : int;
  seconds : float;  (** timed reps run until this much time is spent *)
  trace : bool;
  scale : float;  (** input size relative to the benchmark's *)
  min_reps : int;
  out : string;  (** directory for the journal and the trace file *)
}

(* BENCHMARK.json's run_seconds; the smoke test checks the two agree. *)
let default_seconds = 15.

(* [value] is what the run reports; the rest describes the samples. *)
type summary = { value : float; median : float; q1 : float; q3 : float; n : int }

let summarize ?value xs =
  let q1, q3 = Stat.quartiles xs in
  let median = Stat.median xs in
  { value = Option.value value ~default:median; median; q1; q3; n = List.length xs }

type result = {
  attempted : int;
  failed : int;
  e2e : (string * summary) list;
  layers : (string * float) list;  (** per-layer metrics; [] untraced *)
  table : (string * float) list * float;  (** self seconds, table total *)
  trace_file : string option;
}

(* Set-up is timed in windows, one before the gates and one after each
   timed rep, so its samples spread over the whole run.  The machines
   this runs on slow down for about half a second at a time: set-ups
   packed into the start of a run all fall inside such a slowdown or all
   miss it, and their median moved by up to 80% from run to run.  A
   window sets up at least once and goes on while set-ups are cheap. *)
let setup_window_s = 0.25
let max_setups_per_window = 50

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run o =
  let w =
    match List.find_opt (fun (w : Workload.t) -> w.name = o.workload) workloads with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ o.workload)
  in
  mkdir_p o.out;
  (* Every set-up and every timed rep starts after a full major
     collection, so none pays for the previous one's garbage. *)
  let setup () =
    Gc.full_major ();
    let t0 = Stat.now_ns () in
    let inst = w.setup ~seed:o.seed ~scale:o.scale ~out:o.out in
    (Stat.seconds_since t0, inst)
  in
  let setup_times = ref [] in
  (* One window of set-ups; returns the last instance. *)
  let window () =
    let rec go spent n =
      let dt, inst = setup () in
      setup_times := dt :: !setup_times;
      let spent = spent +. dt in
      if spent < setup_window_s && n + 1 < max_setups_per_window then go spent (n + 1)
      else inst
    in
    go 0. 0
  in
  let inst = window () in
  let attempted, failed = inst.gates () in
  (* A traced run gives half its time to the traced rep, so it takes
     about as long as an untraced one. *)
  let budget = if o.trace then o.seconds /. 2. else o.seconds in
  let reps = ref [] and spent = ref 0. and live = ref nan in
  while !spent < budget || List.length !reps < o.min_reps do
    Gc.full_major ();
    let w0 = Stat.all_minor_words () in
    let t0 = Stat.now_ns () in
    let r = inst.rep () in
    let dt = Stat.seconds_since t0 in
    let words = Stat.all_minor_words () -. w0 in
    if !reps = [] then live := Stat.live_heap_mb ();
    spent := !spent +. dt;
    reps := (dt, r.Workload.ops, words, r.Workload.verify ()) :: !reps;
    ignore (window ())
  done;
  let reps = List.rev !reps in
  let ops = List.fold_left (fun n (_, k, _, _) -> n + k) 0 reps in
  let rep_failed = List.fold_left (fun n (_, _, _, f) -> n + f) 0 reps in
  let throughput = List.map (fun (dt, k, _, _) -> float_of_int k /. dt) reps in
  let e2e =
    [
      ("ops_per_s", summarize ~value:(List.fold_left max 0. throughput) throughput);
      ( "minor_words_per_op",
        summarize (List.map (fun (_, k, words, _) -> words /. float_of_int k) reps) );
      ("live_heap_mb", summarize [ !live ]);
      ("setup_s", summarize !setup_times);
    ]
  in
  let untraced =
    {
      attempted = attempted + ops;
      failed = failed + rep_failed;
      e2e;
      layers = [];
      table = ([], 0.);
      trace_file = None;
    }
  in
  if not o.trace then untraced
  else begin
    let sp = Spans.create () in
    Spans.set_rep sp (List.length reps + 1);
    let tr = Spans.group sp o.workload (fun () -> inst.traced sp) in
    let file =
      Filename.concat o.out (Printf.sprintf "trace-%s-seed%d.json" o.workload o.seed)
    in
    Spans.write sp file;
    let rep_s = Stat.median (List.map (fun (dt, _, _, _) -> dt) reps) in
    let attributed = List.fold_left (fun s (_, x) -> s +. x) 0. tr.self_s in
    let layers =
      tr.metrics
      @ [
          ("trace_overhead_pct", 100. *. ((tr.traced_s /. rep_s) -. 1.));
          ("trace_unattributed_share", Stat.ratio (tr.table_s -. attributed) tr.table_s);
        ]
    in
    {
      untraced with
      failed = untraced.failed + tr.failed;
      layers =
        List.map
          (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name layers)))
          per_layer;
      table = (tr.self_s, tr.table_s);
      trace_file = Some file;
    }
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let unit_of name table = List.assoc name table

(* The result line, the last of standard output: the end-to-end values
   untraced, the per-layer metrics traced. *)
let result_line o r =
  let module J = Report.Json in
  let metric table (name, v) =
    (name, J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of name table)) ])
  in
  let metrics =
    if o.trace then List.map (metric per_layer) r.layers
    else List.map (fun (name, s) -> metric end_to_end (name, s.value)) r.e2e
  in
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ("metrics", J.Obj metrics);
       ])

(* The detailed record printed before it: each end-to-end metric's
   reported value with its within-run median, quartiles and sample
   count. *)
let detail_line o r =
  let module J = Report.Json in
  J.to_string
    (J.Obj
       ([
          ("workload", J.String o.workload);
          ("seed", J.Int o.seed);
          ("scale", J.Float o.scale);
          ("ops", J.Int r.attempted);
          ("failed_ops", J.Int r.failed);
          ( "end_to_end",
            J.Obj
              (List.map
                 (fun (name, s) ->
                   ( name,
                     J.Obj
                       [
                         ("unit", J.String (unit_of name end_to_end));
                         ("value", J.Float s.value);
                         ("median", J.Float s.median);
                         ("q1", J.Float s.q1);
                         ("q3", J.Float s.q3);
                         ("n", J.Int s.n);
                       ] ))
                 r.e2e) );
        ]
       @ match r.trace_file with Some f -> [ ("trace_file", J.String f) ] | None -> []))

(* The layer table of a traced run, with self-time shares and the
   unattributed remainder. *)
let pp_table ppf r =
  let self, total = r.table in
  let attributed = List.fold_left (fun s (_, x) -> s +. x) 0. self in
  Format.fprintf ppf "%-36s %12s %8s@." "layer (self time)" "ms" "share";
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "%-36s %12.3f %7.2f%%@." name (s *. 1e3) (100. *. Stat.ratio s total))
    (self @ [ ("unattributed", total -. attributed) ]);
  Format.fprintf ppf "%-36s %12.3f@." "total" (total *. 1e3)
