(* The observability layer: span tracer, sharded metrics registry,
   profiling hooks.  The core claims under test: (1) observability is
   behaviour-invisible — runs with tracing+metrics fully on are
   byte-identical (registers, memory, cycles, stats, faults, litmus
   verdicts) to runs with them off, over the shared corpus (Dbt_corpus:
   the example programs under every fault plan, the kernel suite and
   generated programs); (2) the sharded metrics merge exactly —
   concurrent totals equal a sequential count; (3) generation
   invalidation: jump cache entries from before a reset/load_cache are
   never followed. *)

module I = X86.Insn
module R = X86.Reg
module C = Dbt_corpus

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* All tests leave the process-global tracer/registry off and empty. *)
let obs_off () =
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  Obs.Metrics.disable ();
  Obs.Metrics.reset ()

let with_obs_on f =
  Obs.Trace.enable ();
  Obs.Metrics.enable ();
  Fun.protect ~finally:obs_off f

(* ------------------------------------------------------------------ *)
(* Tracer unit tests                                                   *)

let test_trace_disabled_is_silent () =
  obs_off ();
  let evaluated = ref false in
  Obs.Trace.instant
    ~args:(fun () ->
      evaluated := true;
      [])
    "never";
  ignore (Obs.Trace.with_span "quiet" (fun () -> 41 + 1));
  check_bool "args thunk not evaluated while disabled" false !evaluated;
  check_int "no events recorded" 0 (List.length (Obs.Trace.events ()))

let test_trace_records_spans () =
  obs_off ();
  Obs.Trace.enable ();
  let r =
    Obs.Trace.with_span ~cat:"t" "outer" (fun () ->
        Obs.Trace.with_span ~cat:"t" "inner" (fun () -> ());
        Obs.Trace.instant ~cat:"t"
          ~args:(fun () -> [ ("k", "v") ])
          "mark";
        17)
  in
  Obs.Trace.disable ();
  check_int "with_span returns f's result" 17 r;
  let evs = Obs.Trace.events () in
  let names = List.map (fun e -> e.Obs.Trace.name) evs in
  check_bool "all three events" true
    (List.sort compare names = [ "inner"; "mark"; "outer" ]);
  let find n = List.find (fun e -> e.Obs.Trace.name = n) evs in
  let outer = find "outer" and inner = find "inner" and mark = find "mark" in
  check_bool "inner nested within outer" true
    (inner.Obs.Trace.dur_us <= outer.Obs.Trace.dur_us
    && inner.Obs.Trace.ts_us >= outer.Obs.Trace.ts_us);
  check_bool "instant marked by negative duration" true
    (mark.Obs.Trace.dur_us < 0.);
  check_bool "instant args captured" true
    (mark.Obs.Trace.args = [ ("k", "v") ]);
  (* sorted by start time *)
  let ts = List.map (fun e -> e.Obs.Trace.ts_us) evs in
  check_bool "events sorted" true (List.sort compare ts = ts);
  obs_off ()

let test_trace_span_survives_exception () =
  obs_off ();
  Obs.Trace.enable ();
  (try Obs.Trace.with_span "boom" (fun () -> raise Exit)
   with Exit -> ());
  Obs.Trace.disable ();
  check_bool "span recorded despite the raise" true
    (List.exists
       (fun e -> e.Obs.Trace.name = "boom")
       (Obs.Trace.events ()));
  obs_off ()

let test_trace_ring_wraps () =
  obs_off ();
  Obs.Trace.enable ~limit:4 ();
  for i = 1 to 10 do
    Obs.Trace.instant (Printf.sprintf "ev%d" i)
  done;
  Obs.Trace.disable ();
  let evs = Obs.Trace.events () in
  check_int "capacity bounds retained events" 4 (List.length evs);
  check_int "overwritten events counted" 6 (Obs.Trace.dropped ());
  (* the ring keeps the newest events *)
  check_bool "oldest overwritten first" true
    (List.exists (fun e -> e.Obs.Trace.name = "ev10") evs
    && not (List.exists (fun e -> e.Obs.Trace.name = "ev1") evs));
  obs_off ()

let test_trace_json_shape () =
  obs_off ();
  Obs.Trace.enable ();
  Obs.Trace.instant ~cat:"t"
    ~args:(fun () -> [ ("quote", {|say "hi"\now|}) ])
    "odd\nname";
  Obs.Trace.with_span ~cat:"t" "span" (fun () -> ());
  Obs.Trace.disable ();
  let json = Obs.Trace.to_json () in
  check_bool "chrome envelope" true
    (String.length json >= 15 && String.sub json 0 15 = {|{"traceEvents":|});
  check_bool "complete-span phase" true (contains json {|"ph":"X"|});
  check_bool "instant phase" true (contains json {|"ph":"i"|});
  check_bool "newline escaped" true (contains json {|odd\nname|});
  check_bool "quote escaped" true (contains json {|say \"hi\"|});
  check_bool "backslash escaped" true (contains json {|\\now|});
  check_bool "no raw newline inside strings" true
    (not (contains json "odd\nname"));
  obs_off ()

(* ------------------------------------------------------------------ *)
(* Metrics unit tests                                                  *)

let test_metrics_buckets () =
  check_int "non-positive" 0 (Obs.Metrics.bucket_of 0);
  check_int "negative" 0 (Obs.Metrics.bucket_of (-5));
  check_int "one" 1 (Obs.Metrics.bucket_of 1);
  check_int "two" 2 (Obs.Metrics.bucket_of 2);
  check_int "three" 2 (Obs.Metrics.bucket_of 3);
  check_int "four" 3 (Obs.Metrics.bucket_of 4);
  (* 63-bit OCaml ints top out at 2^62 - 1, i.e. bucket 62; 63 is the
     saturation cap. *)
  check_int "max_int lands in the top reachable bucket" 62
    (Obs.Metrics.bucket_of max_int);
  check_int "bucket count" 64 Obs.Metrics.buckets

let test_metrics_roundtrip () =
  obs_off ();
  let c = Obs.Metrics.counter "test.rt.count" in
  let g = Obs.Metrics.gauge "test.rt.gauge" in
  let h = Obs.Metrics.histogram "test.rt.hist" in
  (* disabled: all no-ops *)
  Obs.Metrics.incr c;
  Obs.Metrics.set g 9;
  Obs.Metrics.observe h 5;
  let s = Obs.Metrics.snapshot () in
  check_bool "disabled counter untouched" true
    (Obs.Metrics.find_counter s "test.rt.count" = Some 0);
  Obs.Metrics.enable ();
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 42;
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 1000 ];
  let s = Obs.Metrics.snapshot () in
  check_bool "counter" true (Obs.Metrics.find_counter s "test.rt.count" = Some 5);
  check_bool "gauge last-writer-wins" true
    (Obs.Metrics.find_gauge s "test.rt.gauge" = Some 42);
  (match Obs.Metrics.find_histogram s "test.rt.hist" with
  | None -> Alcotest.fail "histogram missing"
  | Some hs ->
      check_int "hist count" 4 hs.Obs.Metrics.count;
      check_int "hist sum" 1006 hs.Obs.Metrics.sum;
      check_int "bucket for 1" 1
        hs.Obs.Metrics.counts.(Obs.Metrics.bucket_of 1);
      check_int "bucket for 1000" 1
        hs.Obs.Metrics.counts.(Obs.Metrics.bucket_of 1000));
  (* registration is idempotent by name *)
  let c' = Obs.Metrics.counter "test.rt.count" in
  Obs.Metrics.incr c';
  let s = Obs.Metrics.snapshot () in
  check_bool "same metric behind the name" true
    (Obs.Metrics.find_counter s "test.rt.count" = Some 6);
  check_int "no duplicate registration" 1
    (List.length
       (List.filter
          (fun (n, _) -> n = "test.rt.count")
          s.Obs.Metrics.counters));
  Obs.Metrics.reset ();
  let s = Obs.Metrics.snapshot () in
  check_bool "reset zeroes counters" true
    (Obs.Metrics.find_counter s "test.rt.count" = Some 0);
  obs_off ()

(* Satellite: concurrent increments across a Domain pool must merge to
   exactly the sequential total. *)
let test_metrics_merge_concurrent () =
  obs_off ();
  let c = Obs.Metrics.counter "test.merge.count" in
  let h = Obs.Metrics.histogram "test.merge.hist" in
  let tasks = List.init 64 (fun i -> i) in
  let work i =
    for k = 1 to 250 do
      Obs.Metrics.incr c;
      Obs.Metrics.observe h (1 + ((i + k) mod 1024))
    done
  in
  let capture run =
    Obs.Metrics.reset ();
    Obs.Metrics.enable ();
    run ();
    let s = Obs.Metrics.snapshot () in
    Obs.Metrics.disable ();
    ( Obs.Metrics.find_counter s "test.merge.count",
      Obs.Metrics.find_histogram s "test.merge.hist" )
  in
  let seq_c, seq_h = capture (fun () -> List.iter work tasks) in
  let par_c, par_h =
    capture (fun () ->
        Parallel.Pool.with_pool ~jobs:4 (fun pool ->
            ignore (Parallel.Pool.map_exn pool work tasks)))
  in
  check_bool "counter: parallel = sequential" true (par_c = seq_c);
  check_bool "counter total" true (seq_c = Some (64 * 250));
  (match (seq_h, par_h) with
  | Some a, Some b ->
      check_int "hist count" a.Obs.Metrics.count b.Obs.Metrics.count;
      check_int "hist sum" a.Obs.Metrics.sum b.Obs.Metrics.sum;
      check_bool "hist buckets identical" true
        (a.Obs.Metrics.counts = b.Obs.Metrics.counts)
  | _ -> Alcotest.fail "histogram missing");
  obs_off ()

(* ------------------------------------------------------------------ *)
(* Differential: observability on vs off is guest-invisible            *)

let obs_variants : C.variant list =
  [
    ( "off",
      fun c i ->
        obs_off ();
        C.fingerprint c i );
    ("on", fun c i -> with_obs_on (fun () -> C.fingerprint c i));
  ]

let test_differential_examples () = C.agree_on_examples ~key:Fun.id ~plans:[ [] ] obs_variants

let test_differential_fault_corpus () =
  C.agree_on_examples ~key:Fun.id ~plans:C.plans obs_variants

(* Obs on = off over the 16 kernels, and the traced, metered pass
   records the engine's and the optimizer's spans, times backend
   compiles, and counts fences emitted and fences merged or dropped. *)
let test_differential_kernel_suite () =
  let fence_total snap suffix =
    List.fold_left
      (fun acc (name, v) -> if Filename.check_suffix name suffix then acc + v else acc)
      0
      (Obs.Metrics.counters_with_prefix snap "fence.")
  in
  obs_off ();
  let off, _ = C.kernel_pass Core.Config.risotto in
  with_obs_on (fun () ->
      let on, _ = C.kernel_pass Core.Config.risotto in
      List.iter2
        (fun (name, off) (_, on) -> check_bool (name ^ ": kernel obs on = off") true (off = on))
        off on;
      let cats = List.map (fun (e : Obs.Trace.event) -> e.cat) (Obs.Trace.events ()) in
      check_bool "engine spans traced" true (List.mem "engine" cats);
      check_bool "optimizer spans traced" true (List.mem "opt" cats);
      let snap = Obs.Metrics.snapshot () in
      check_bool "backend compiles timed" true
        (match Obs.Metrics.find_histogram snap "engine.compile.ns" with
        | Some h -> h.Obs.Metrics.count > 0
        | None -> false);
      check_bool "fences emitted" true (fence_total snap ".emitted" > 0);
      check_bool "fences merged or dropped" true
        (fence_total snap ".merged" + fence_total snap ".dropped" > 0))

let test_differential_litmus_verdicts () =
  let model = Axiom.X86_tso.model in
  List.iter
    (fun (name, test) ->
      obs_off ();
      let off = Litmus.Enumerate.check model test in
      let on = with_obs_on (fun () -> Litmus.Enumerate.check model test) in
      check_bool (name ^ ": verdict obs on = off") true (off = on))
    Litmus.Catalog.x86_tests

let differential_prop =
  C.agree_on_generated ~name:"obs on = obs off on random programs" ~count:220 ~key:Fun.id
    obs_variants

(* ------------------------------------------------------------------ *)
(* Generation invalidation: a stale jump cache never serves a node     *)

let test_tbchain_generation_unit () =
  let t = Core.Tbchain.create () in
  let a = Core.Tbchain.insert t 0x1000L "A" in
  a.Core.Tbchain.exec_count <- 3;
  let jc = Core.Tbchain.jcache_create t in
  Core.Tbchain.jcache_store t jc a;
  check_bool "jcache hit" true
    (match Core.Tbchain.jcache_find t jc 0x1000L with
    | Some n -> n == a
    | None -> false);
  let gen0 = Core.Tbchain.generation t in
  Core.Tbchain.reset_counts t;
  check_int "generation bumped" (gen0 + 1) (Core.Tbchain.generation t);
  check_int "counts restarted" 0 a.Core.Tbchain.exec_count;
  check_bool "stale jcache entry invisible" true
    (Core.Tbchain.jcache_find t jc 0x1000L = None);
  (* re-stored under the new generation, the cache works again *)
  Core.Tbchain.jcache_store t jc a;
  check_bool "fresh jcache entry hits" true
    (match Core.Tbchain.jcache_find t jc 0x1000L with
    | Some n -> n == a
    | None -> false);
  Core.Tbchain.flush t;
  check_int "flush empties the table" 0 (Core.Tbchain.length t);
  check_bool "jcache dead after flush" true
    (Core.Tbchain.jcache_find t jc 0x1000L = None)

(* A store from before the generation bump must be dropped, not
   resurrected by a later lookup in the new generation. *)
let test_tbchain_stale_store_dropped () =
  let t = Core.Tbchain.create () in
  let a = Core.Tbchain.insert t 0x1000L "A" in
  let jc = Core.Tbchain.jcache_create t in
  Core.Tbchain.jcache_store t jc a;
  Core.Tbchain.reset_counts t;
  (* the node is still in the table (reset_counts keeps bodies), but
     the pre-bump cache entry must not serve it *)
  check_bool "node survives reset_counts" true
    (Core.Tbchain.find t 0x1000L <> None);
  check_bool "stale entry dropped" true
    (Core.Tbchain.jcache_find t jc 0x1000L = None)

(* Engine level: a thread whose jump cache was filled before a mid-run
   [reset] must complete cleanly on retranslated code, with identical
   results. *)
let test_engine_reset_mid_run () =
  (* Long enough that a handful of dispatches leaves the thread
     mid-loop. *)
  let image = C.build (C.countdown_n 200) in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng in
  check_bool "warm run clean" true (g1.Core.Engine.trap = None);
  let g2 = Core.Engine.spawn eng ~tid:1 ~entry:image.Image.Gelf.entry () in
  let hits0 = (Core.Engine.stats eng).Core.Engine.jmp_cache_hits in
  for _ = 1 to 5 do
    Core.Engine.step_block eng g2
  done;
  check_bool "mid-run" true (not g2.Core.Engine.finished);
  check_bool "jump cache filled" true
    ((Core.Engine.stats eng).Core.Engine.jmp_cache_hits > hits0);
  let gen0 = Core.Engine.generation eng in
  let translated = (Core.Engine.stats eng).Core.Engine.blocks_translated in
  Core.Engine.reset eng;
  check_bool "generation bumped" true (Core.Engine.generation eng > gen0);
  (* the thread's jump cache still holds pre-reset nodes: finishing it
     must ignore all of them and retranslate *)
  Core.Engine.run_thread eng g2;
  check_bool "completes after mid-run reset" true
    (g2.Core.Engine.trap = None && g2.Core.Engine.finished);
  check_i64 "same result as the uninterrupted run"
    (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "blocks retranslated" true
    ((Core.Engine.stats eng).Core.Engine.blocks_translated > translated)

(* Same shape across [load_cache]: the loaded translations replace the
   bodies the thread's jump cache was filled with, so it must refill. *)
let test_engine_load_cache_mid_run () =
  let path = Filename.temp_file "risotto_obs" ".rstc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let image = C.build (C.countdown_n 200) in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng in
  check_bool "warm run clean" true (g1.Core.Engine.trap = None);
  ignore (Core.Engine.save_cache eng path);
  let g2 = Core.Engine.spawn eng ~tid:1 ~entry:image.Image.Gelf.entry () in
  for _ = 1 to 5 do
    Core.Engine.step_block eng g2
  done;
  check_bool "mid-run" true (not g2.Core.Engine.finished);
  let gen0 = Core.Engine.generation eng in
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "blocks loaded" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  check_int "generation bumped" (gen0 + 1) (Core.Engine.generation eng);
  let hits0 = (Core.Engine.stats eng).Core.Engine.jmp_cache_hits in
  Core.Engine.run_thread eng g2;
  check_bool "jump cache refilled" true
    ((Core.Engine.stats eng).Core.Engine.jmp_cache_hits > hits0);
  check_bool "completes after mid-run reload" true
    (g2.Core.Engine.trap = None && g2.Core.Engine.finished);
  check_i64 "same result as the uninterrupted run"
    (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX)

(* ------------------------------------------------------------------ *)
(* stats_line: every counter reported unconditionally                  *)

let test_stats_line_reports_fallbacks () =
  let image = C.build C.fact in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g = Core.Engine.run eng in
  let line = Core.Engine.stats_line eng g in
  check_bool "clean run still reports interp-fallbacks=0" true
    (contains line "interp-fallbacks=0");
  check_bool "clean run reports traps=0" true (contains line "traps=0");
  check_bool "cycles reported" true
    (contains line (Printf.sprintf "cycles=%d" (Core.Engine.cycles g)));
  let config =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Core.Inject.Always Core.Inject.Compile ];
    }
  in
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  let st = Core.Engine.stats eng in
  check_bool "degraded run actually degraded" true
    (st.Core.Engine.interp_fallbacks > 0);
  check_bool "degraded count reported" true
    (contains (Core.Engine.stats_line eng g)
       (Printf.sprintf "interp-fallbacks=%d" st.Core.Engine.interp_fallbacks))

(* ------------------------------------------------------------------ *)
(* Profiling hooks: hot blocks and engine gauges                       *)

let test_hot_blocks_and_publish () =
  obs_off ();
  let image = C.build C.countdown in
  with_obs_on @@ fun () ->
  let eng = Core.Engine.create Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_bool "run clean" true (g.Core.Engine.trap = None);
  (match Core.Engine.hot_blocks ~limit:3 eng with
  | [] -> Alcotest.fail "no hot blocks ranked"
  | (top :: _ : Obs.Profile.entry list) as hot ->
      check_bool "at most limit entries" true (List.length hot <= 3);
      check_bool "cycles attributed while metrics on" true
        (top.Obs.Profile.cost > 0);
      check_bool "ranking is descending by attributed cycles" true
        (let costs = List.map (fun (e : Obs.Profile.entry) -> e.Obs.Profile.cost) hot in
         List.sort (fun a b -> compare b a) costs = costs);
      (* the loop body dominates a 25-iteration countdown *)
      check_bool "the loop body ranks first" true
        (List.for_all
           (fun (e : Obs.Profile.entry) -> e.Obs.Profile.count <= top.Obs.Profile.count)
           hot));
  (* Without attributed cycles (metrics off), executions rank. *)
  let entry key count = { Obs.Profile.key; count; cost = 0 } in
  check_bool "unmetered entries rank by count" true
    (List.map
       (fun (e : Obs.Profile.entry) -> e.Obs.Profile.key)
       (Obs.Profile.rank [ entry 1L 3; entry 2L 9; entry 3L 5 ])
    = [ 2L; 3L; 1L ]);
  Core.Engine.publish_metrics eng;
  let s = Obs.Metrics.snapshot () in
  let st = Core.Engine.stats eng in
  check_bool "stats mirrored to gauges" true
    (Obs.Metrics.find_gauge s "engine.stats.blocks_executed"
    = Some st.Core.Engine.blocks_executed);
  check_bool "translate latency histogram populated" true
    (match Obs.Metrics.find_histogram s "engine.translate.ns" with
    | Some h -> h.Obs.Metrics.count = st.Core.Engine.blocks_translated
    | None -> false);
  check_bool "optimizer pass timing populated" true
    (List.exists
       (fun (n, (h : Obs.Metrics.hist_snap)) ->
         String.length n > 4
         && String.sub n 0 4 = "opt."
         && h.Obs.Metrics.count > 0)
       s.Obs.Metrics.histograms)

let () =
  obs_off ();
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled tracer is silent and lazy" `Quick
            test_trace_disabled_is_silent;
          Alcotest.test_case "spans, nesting, instants, ordering" `Quick
            test_trace_records_spans;
          Alcotest.test_case "span recorded when f raises" `Quick
            test_trace_span_survives_exception;
          Alcotest.test_case "ring wraps, drops counted" `Quick
            test_trace_ring_wraps;
          Alcotest.test_case "chrome trace JSON shape and escaping" `Quick
            test_trace_json_shape;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "log2 bucketing" `Quick test_metrics_buckets;
          Alcotest.test_case "counter/gauge/histogram round trip" `Quick
            test_metrics_roundtrip;
          Alcotest.test_case "concurrent merge = sequential sum" `Quick
            test_metrics_merge_concurrent;
        ] );
      ( "differential",
        [
          Alcotest.test_case "examples: obs on = off (all configs)" `Quick
            test_differential_examples;
          Alcotest.test_case "fault corpus: obs on = off" `Quick
            test_differential_fault_corpus;
          Alcotest.test_case "kernel suite: obs on = off" `Quick
            test_differential_kernel_suite;
          Alcotest.test_case "litmus verdicts: obs on = off" `Quick
            test_differential_litmus_verdicts;
          QCheck_alcotest.to_alcotest differential_prop;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "tbchain generation (jcache)" `Quick
            test_tbchain_generation_unit;
          Alcotest.test_case "stale jcache store dropped" `Quick
            test_tbchain_stale_store_dropped;
          Alcotest.test_case "reset mid-run: stale dispatch state dies" `Quick
            test_engine_reset_mid_run;
          Alcotest.test_case "load_cache mid-run: stale dispatch state dies"
            `Quick test_engine_load_cache_mid_run;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "stats_line reports every counter" `Quick
            test_stats_line_reports_fallbacks;
          Alcotest.test_case "hot blocks + published gauges" `Quick
            test_hot_blocks_and_publish;
        ] );
    ]
