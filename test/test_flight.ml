(* The always-on flight recorder and its trap postmortems: ring
   mechanics, differential parity (recording must be behaviour-
   invisible over the shared corpus, Dbt_corpus: the example programs
   under every fault plan, the kernels and generated programs),
   byte-deterministic postmortem JSON, and the fence-provenance ledger
   the postmortem embeds. *)

module I = X86.Insn
module R = X86.Reg
module Fl = Obs.Flight
module C = Dbt_corpus
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* Restore the global recording switch no matter how a test exits:
   every other suite in this binary assumes the production default. *)
let with_flight_off f =
  Fl.disable ();
  Fun.protect ~finally:(fun () -> Fl.enable ()) f

(* ------------------------------------------------------------------ *)
(* Ring mechanics                                                      *)

let test_ring_basics () =
  let r = Fl.create ~capacity:10 () in
  check_int "capacity rounds up to a power of two" 16 (Fl.capacity r);
  for i = 0 to 4 do
    Fl.record r Fl.Block_enter (Int64.of_int i) i
  done;
  check_int "recorded counts everything" 5 (Fl.recorded r);
  let evs = Fl.events r in
  check_int "all retained below capacity" 5 (List.length evs);
  check_bool "oldest first" true
    (List.map (fun (e : Fl.event) -> e.Fl.pc) evs
    = [ 0L; 1L; 2L; 3L; 4L ]);
  check_bool "sequence numbers dense from zero" true
    (List.map (fun (e : Fl.event) -> e.Fl.seq) evs = [ 0; 1; 2; 3; 4 ])

let test_ring_overwrites () =
  let r = Fl.create ~capacity:16 () in
  for i = 0 to 39 do
    Fl.record r Fl.Tier_degraded (Int64.of_int i) i
  done;
  check_int "recorded counts beyond capacity" 40 (Fl.recorded r);
  let evs = Fl.events r in
  check_int "ring keeps only the last capacity events" 16 (List.length evs);
  check_bool "oldest retained is recorded - capacity" true
    (match evs with e :: _ -> e.Fl.seq = 24 | [] -> false);
  check_bool "newest retained is the last record" true
    (match List.rev evs with e :: _ -> e.Fl.seq = 39 | [] -> false);
  let last4 = Fl.last ~n:4 r in
  check_bool "last ~n trims from the old end" true
    (List.map (fun (e : Fl.event) -> e.Fl.seq) last4 = [ 36; 37; 38; 39 ]);
  Fl.reset r;
  check_int "reset empties the ring" 0 (List.length (Fl.events r))

let test_ring_gated_by_global_switch () =
  let r = Fl.create () in
  with_flight_off (fun () ->
      Fl.record r Fl.Trap 0x1000L 0;
      check_int "disabled record is a no-op" 0 (Fl.recorded r));
  Fl.record r Fl.Trap 0x1000L 0;
  check_int "re-enabled record lands" 1 (Fl.recorded r)

(* ------------------------------------------------------------------ *)
(* Differential parity: recording is behaviour-invisible               *)

let recorder_variants : C.variant list =
  [ ("on", C.fingerprint); ("off", fun c i -> with_flight_off (fun () -> C.fingerprint c i)) ]

let test_parity_examples () = C.agree_on_examples ~key:Fun.id ~plans:[ [] ] recorder_variants

let test_parity_under_injection () =
  C.agree_on_examples ~key:Fun.id ~plans:C.plans recorder_variants

(* The recorder writes into rings allocated with the engine, so on the
   hot path it allocates nothing: on, off and on again, a kernel pass
   allocates the same minor words and ends in the same state.  A first
   pass takes the process's one-off lazy set-up out of the count. *)
let test_parity_kernel_suite () =
  let pass () = C.kernel_pass Core.Config.risotto in
  ignore (pass ());
  let on1 = pass () in
  let off = with_flight_off pass in
  let on2 = pass () in
  check_bool "recorder off = on (state, cycles, stats)" true (fst off = fst on1);
  check_bool "recorder on twice (state, cycles, stats)" true (fst on2 = fst on1);
  let words = Alcotest.(check (float 0.)) in
  words "minor words: recorder off = on" (snd on1) (snd off);
  words "minor words: recorder on again" (snd on1) (snd on2)

(* The generated programs loop, so the recorder sees block-enter
   traffic on the hot path it claims not to perturb. *)
let flight_differential_prop =
  C.agree_on_generated ~name:"recorder on = recorder off (looped programs)" ~count:200
    ~key:Fun.id recorder_variants

(* ------------------------------------------------------------------ *)
(* Postmortems                                                         *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn > 0 && go 0

let trap_config =
  {
    Core.Config.risotto with
    Core.Config.inject = [ Core.Inject.Always Core.Inject.Decode ];
  }

let postmortem_string () =
  let eng = Core.Engine.create trap_config (C.build C.countdown) in
  let g = Core.Engine.run eng in
  check_bool "injected decode fault traps" true
    (Core.Engine.trap g <> None);
  Report.Json.to_string (Core.Engine.postmortem_json eng ~reason:"test")

let test_postmortem_deterministic () =
  let a = postmortem_string () in
  let b = postmortem_string () in
  check_bool "two identical runs, byte-identical postmortems" true (a = b);
  check_bool "schema stamped" true
    (contains a {|"schema":"risotto.postmortem.v2"|});
  check_bool "trapping thread's ring includes the trap event" true
    (contains a {|"kind":"trap"|});
  check_bool "fence ledgers embedded" true (contains a {|"fence_ledgers"|})

let test_postmortem_deterministic_with_metrics () =
  (* Wall-clock histograms and .ns/.us gauges are excluded from the
     dump, so even a metrics-on postmortem is byte-stable (after a
     registry reset, since counters are process-cumulative).  A clean
     run first fills [engine.compile.ns] with samples the dump must
     leave out. *)
  let dump () =
    Obs.Metrics.reset ();
    ignore
      (Core.Engine.run (Core.Engine.create Core.Config.risotto (C.build C.countdown)));
    postmortem_string ()
  in
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      let a = dump () in
      let compiles =
        match Obs.Metrics.find_histogram (Obs.Metrics.snapshot ()) "engine.compile.ns" with
        | Some h -> h.Obs.Metrics.count
        | None -> 0
      in
      let b = dump () in
      check_bool "metrics-on postmortems byte-identical" true (a = b);
      check_bool "metrics slice present" true (contains a {|"counters"|});
      check_bool "compiles were timed" true (compiles > 0);
      check_bool "wall-clock histograms excluded" true
        (not (contains a "engine.compile.ns")))

let test_postmortem_dumped_on_trap () =
  let dir = Filename.temp_file "risotto_flight" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      let eng = Core.Engine.create trap_config (C.build C.countdown) in
      Core.Engine.set_postmortem_dir eng (Some dir);
      let _ = Core.Engine.run eng in
      check_int "one postmortem written" 1
        (Core.Engine.postmortems_written eng);
      let path = Filename.concat dir "postmortem-000.json" in
      check_bool "artifact exists" true (Sys.file_exists path);
      let ic = open_in_bin path in
      let body =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_bool "artifact carries the trap reason" true
        (contains body {|"reason":"trap:|}))

let test_watchdog_dumps_postmortem () =
  let dir = Filename.temp_file "risotto_flight" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      let image = C.build [ Label "main"; Jmp_lbl "main" ] in
      let eng = Core.Engine.create Core.Config.risotto image in
      Core.Engine.set_postmortem_dir eng (Some dir);
      let g = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
      (match Core.Engine.run_concurrent ~max_blocks:10 eng [ g ] with
      | Core.Engine.Exhausted _ -> ()
      | Core.Engine.Completed _ -> Alcotest.fail "spin loop cannot complete");
      check_int "exhaustion dumped a postmortem" 1
        (Core.Engine.postmortems_written eng);
      check_bool "watchdog event recorded in the thread ring" true
        (List.exists
           (fun (e : Fl.event) -> e.Fl.kind = Fl.Watchdog)
           (Fl.events (Core.Engine.thread_flight g))))

(* Tier states are ordered by pc as a number: with blocks on both sides
   of 0x10000, sorting the "0x..." strings would put 0x10000 first. *)
let test_postmortem_tiers_sorted_by_pc () =
  let items =
    [ Label "main"; Ins (I.Mov_ri (R.RBX, 5L)); Jmp_lbl "far" ]
    @ List.init 16 (fun _ -> Ins I.Nop)
    @ [ Label "far"; Ins I.Hlt ]
  in
  let image = Image.Gelf.build ~org:0xfff0L ~entry:"main" items in
  let eng = Core.Engine.create Core.Config.risotto image in
  let _ = Core.Engine.run eng in
  let pcs =
    match Report.Json.member "tiers" (Core.Engine.postmortem_json eng ~reason:"test") with
    | Some (Report.Json.List tiers) ->
        List.filter_map
          (fun n ->
            match Report.Json.member "pc" n with
            | Some (Report.Json.String pc) -> Some (Int64.of_string pc)
            | _ -> None)
          tiers
    | _ -> []
  in
  check_bool "blocks below and above 0x10000" true
    (List.exists (fun pc -> pc < 0x10000L) pcs
    && List.exists (fun pc -> pc >= 0x10000L) pcs);
  check_bool "tiers in numeric pc order" true
    (pcs = List.sort Int64.compare pcs)

(* ------------------------------------------------------------------ *)
(* Sink agreement: one event, one count in every sink                  *)

(* Flight events of [kind] in the engine ring and every thread ring.
   The rings must not have wrapped, or the count would be short. *)
let ring_count eng threads kind =
  let rings = Core.Engine.flight eng :: List.map Core.Engine.thread_flight threads in
  List.iter
    (fun r -> check_bool "ring did not wrap" true (Fl.recorded r <= Fl.capacity r))
    rings;
  List.fold_left
    (fun acc r ->
      acc + List.length (List.filter (fun (e : Fl.event) -> e.Fl.kind = kind) (Fl.events r)))
    0 rings

(* For every event that records a flight kind: ring events = the
   engine's counter = its published [engine.stats.*] gauge. *)
let check_sinks name eng threads =
  Core.Engine.publish_metrics eng;
  let snap = Obs.Metrics.snapshot () in
  List.iter
    (fun e ->
      match Core.Engine.event_flight e with
      | None -> ()
      | Some kind ->
          let label = Printf.sprintf "%s: %s" name (Core.Engine.event_name e) in
          let n = Core.Engine.count eng e in
          check_int (label ^ " ring = counter") n (ring_count eng threads kind);
          Alcotest.(check (option int))
            (label ^ " gauge = counter") (Some n)
            (Obs.Metrics.find_gauge snap ("engine.stats." ^ Core.Engine.event_name e)))
    Core.Engine.events

let test_sinks_agree () =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      let image = C.build C.countdown in
      (* (a) Eager backend failure on every block. *)
      Obs.Metrics.reset ();
      let config =
        { Core.Config.risotto with Core.Config.inject = [ Core.Inject.Always Core.Inject.Compile ] }
      in
      let eng = Core.Engine.create config image in
      let g = Core.Engine.run eng in
      check_bool "eager run degraded" true
        (Core.Engine.count eng Core.Engine.Fallback > 0);
      check_sinks "eager degrade" eng [ g ];
      (* (b) Mixed: about half the blocks degraded, the rest native. *)
      Obs.Metrics.reset ();
      let config =
        {
          Core.Config.risotto with
          Core.Config.inject =
            [ Core.Inject.Seeded { site = Core.Inject.Compile; seed = 42L; permille = 500 } ];
        }
      in
      let eng = Core.Engine.create config image in
      let g = Core.Engine.run eng in
      check_bool "mixed run degraded and interpreted" true
        (Core.Engine.count eng Core.Engine.Fallback > 0
        && Core.Engine.count eng Core.Engine.Interp_exec > 0);
      check_sinks "mixed degrade" eng [ g ];
      (* Each counter reaches the registry under one name only. *)
      let snap = Obs.Metrics.snapshot () in
      let gauges = List.map fst snap.Obs.Metrics.gauges in
      check_bool "no name is both a counter and a gauge" true
        (List.for_all (fun (n, _) -> not (List.mem n gauges)) snap.Obs.Metrics.counters))

(* ------------------------------------------------------------------ *)
(* Fence provenance                                                    *)

let test_fence_ledger_records_merges () =
  (* Back-to-back MFENCEs: the frontend emits two F_sc fences with
     mfence origins; Fence_merge keeps one and absorbs the other. *)
  let items =
    [
      Label "main";
      Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.I 1L));
      Ins I.Mfence;
      Ins I.Mfence;
      Ins (I.Load (R.RAX, { I.base = None; index = None; disp = 0x5000L }));
      Ins I.Hlt;
    ]
  in
  let eng = Core.Engine.create Core.Config.risotto (C.build items) in
  let _ = Core.Engine.run eng in
  let ledgers = Core.Engine.fence_ledgers eng in
  check_bool "at least one block translated with a ledger" true
    (ledgers <> []);
  let total name =
    List.fold_left
      (fun acc (_, l) -> acc + Tcg.Fence_ledger.count l name)
      0 ledgers
  in
  check_bool "fences emitted" true (total "emitted" >= 2);
  check_bool "a fence was merged away" true (total "merged" >= 1);
  check_bool "survivors are kept" true (total "kept" >= 1);
  (* Provenance survives into the entries: the absorbed fence names the
     mfence origin it came from. *)
  let merged_entries =
    List.concat_map
      (fun (_, l) ->
        List.filter
          (fun (e : Tcg.Fence_ledger.entry) ->
            match e.Tcg.Fence_ledger.outcome with
            | Tcg.Fence_ledger.Merged _ -> true
            | _ -> false)
          (Tcg.Fence_ledger.entries l))
      ledgers
  in
  check_bool "merged entry carries its guest origin" true
    (List.exists
       (fun (e : Tcg.Fence_ledger.entry) ->
         e.Tcg.Fence_ledger.origin.Tcg.Op.rule = "pre-mfence")
       merged_entries)

let test_fence_metrics_counters () =
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      let items =
        [
          Label "main";
          Ins I.Mfence;
          Ins I.Mfence;
          Ins (I.Mov_ri (R.R13, 1L));
          Ins I.Hlt;
        ]
      in
      let eng = Core.Engine.create Core.Config.risotto (C.build items) in
      let _ = Core.Engine.run eng in
      let snap = Obs.Metrics.snapshot () in
      let fences = Obs.Metrics.counters_with_prefix snap "fence." in
      check_bool "fence.* counters populated" true (fences <> []);
      let total suffix =
        List.fold_left
          (fun acc (name, v) ->
            if Filename.check_suffix name suffix then acc + v else acc)
          0 fences
      in
      check_bool "emitted counted" true (total ".emitted" >= 2);
      check_bool "merged counted" true (total ".merged" >= 1))

(* The hot path counts fence outcomes; fence_ledgers re-derives the
   provenance by re-translating.  The two must agree, and re-deriving
   must be invisible: no counter, metric, flight ring or injection
   occurrence moves. *)
let test_ledgers_rederived_match_counters () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 0x5000L));
      Ins (I.Mov_ri (R.RCX, 20L));
      Label "loop";
      Ins (I.Load (R.RAX, I.based R.RBX 0L));
      Ins (I.Store (I.based R.RBX 8L, I.R R.RAX));
      Ins I.Mfence;
      Ins (I.Mov_ri (R.RDX, 1L));
      Ins (I.Lock_xadd (I.based R.RBX 16L, R.RDX));
      Ins (I.Alu (I.Sub, R.RCX, I.I 1L));
      Ins (I.Cmp (R.RCX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Mfence;
      Ins I.Mfence;
      Ins I.Hlt;
    ]
  in
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      List.iter
        (fun (config : Core.Config.t) ->
          Obs.Metrics.reset ();
          let eng = Core.Engine.create config (C.build items) in
          let g = Core.Engine.run eng in
          check_bool "clean run" true (Core.Engine.trap g = None);
          Core.Engine.publish_metrics eng;
          let observed () =
            let snap = Obs.Metrics.snapshot () in
            ( ( Core.Engine.stats eng,
                snap.Obs.Metrics.counters,
                snap.Obs.Metrics.gauges ),
              ( Fl.last ~n:1000 (Core.Engine.flight eng),
                Fl.last ~n:1000 (Core.Engine.thread_flight g),
                List.map (Core.Inject.count (Core.Engine.injector eng)) Core.Inject.all_sites ) )
          in
          let before = observed () in
          let ledgers = Core.Engine.fence_ledgers eng in
          check_bool (config.name ^ ": every block has a ledger") true
            (List.length ledgers = (Core.Engine.stats eng).Core.Engine.blocks_translated);
          let counters = Obs.Metrics.counters_with_prefix (Obs.Metrics.snapshot ()) "fence." in
          List.iter
            (fun outcome ->
              let counted =
                List.fold_left
                  (fun n (name, v) ->
                    if Filename.check_suffix name ("." ^ outcome) then n + v else n)
                  0 counters
              in
              let recorded =
                List.fold_left (fun n (_, l) -> n + Tcg.Fence_ledger.count l outcome) 0 ledgers
              in
              check_int (config.name ^ ": " ^ outcome ^ " ledger = fence.* counters") counted
                recorded)
            [ "emitted"; "kept"; "merged"; "dropped"; "strengthened" ];
          ignore (Core.Engine.fence_ledgers eng);
          check_bool (config.name ^ ": re-deriving twice moved nothing") true
            (observed () = before))
        Core.Config.all)

(* ------------------------------------------------------------------ *)
(* Announcements: logged or traced only when someone listens           *)

(* Counters and rings of a countdown run, with [setup] applied around
   it, the log lines the engine's source reported meanwhile and the
   names of the trace events it recorded. *)
let run_announced setup =
  let lines = ref [] in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun line ->
            lines := line :: !lines;
            over ();
            k ())
          fmt)
  in
  let saved_reporter = Logs.reporter () and saved_level = Logs.Src.level Core.Engine.log_src in
  Logs.set_reporter { Logs.report };
  Obs.Trace.clear ();
  let result =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.disable ();
        Obs.Trace.clear ();
        Logs.set_reporter saved_reporter;
        Logs.Src.set_level Core.Engine.log_src saved_level)
      (fun () ->
        setup ();
        let eng = Core.Engine.create Core.Config.risotto (C.build C.countdown) in
        let g = Core.Engine.run eng in
        ( ( List.map (Core.Engine.count eng) Core.Engine.events,
            Fl.events (Core.Engine.flight eng),
            Fl.events (Core.Engine.thread_flight g) ),
          List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()) ))
  in
  (fst result, List.rev !lines, snd result)

let test_announce_when_listened () =
  let quiet, quiet_lines, _ =
    run_announced (fun () -> Logs.Src.set_level Core.Engine.log_src None)
  in
  check_int "nothing logged while the source is off" 0 (List.length quiet_lines);
  let loud, lines, traced =
    run_announced (fun () ->
        Logs.Src.set_level Core.Engine.log_src (Some Logs.Info);
        Obs.Trace.enable ())
  in
  let starts name line =
    String.length line > String.length name
    && String.sub line 0 (String.length name + 1) = name ^ " "
  in
  let translated = Fl.kind_name Fl.Fence_pass in
  check_bool "the Translated log line appears" true (List.exists (starts translated) lines);
  check_bool "no debug line at Info" false
    (List.exists (starts (Fl.kind_name Fl.Block_enter)) lines);
  check_bool "the Translated trace instant appears" true
    (List.mem translated traced);
  check_bool "counters and flight rings unchanged" true (quiet = loud)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "overwrite and last" `Quick test_ring_overwrites;
          Alcotest.test_case "global switch gates records" `Quick
            test_ring_gated_by_global_switch;
        ] );
      ( "parity",
        [
          Alcotest.test_case "examples" `Quick test_parity_examples;
          Alcotest.test_case "fault corpus" `Quick
            test_parity_under_injection;
          Alcotest.test_case "kernel suite: no words, same state" `Quick
            test_parity_kernel_suite;
          QCheck_alcotest.to_alcotest flight_differential_prop;
        ] );
      ( "postmortem",
        [
          Alcotest.test_case "byte-deterministic" `Quick
            test_postmortem_deterministic;
          Alcotest.test_case "byte-deterministic with metrics" `Quick
            test_postmortem_deterministic_with_metrics;
          Alcotest.test_case "dumped on trap" `Quick
            test_postmortem_dumped_on_trap;
          Alcotest.test_case "dumped on watchdog exhaustion" `Quick
            test_watchdog_dumps_postmortem;
          Alcotest.test_case "tiers sorted by numeric pc" `Quick
            test_postmortem_tiers_sorted_by_pc;
        ] );
      ( "fence provenance",
        [
          Alcotest.test_case "ledger records merges" `Quick
            test_fence_ledger_records_merges;
          Alcotest.test_case "metrics counters" `Quick
            test_fence_metrics_counters;
          Alcotest.test_case "re-derived ledgers match the counters" `Quick
            test_ledgers_rederived_match_counters;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "counter = ring = gauge" `Quick test_sinks_agree;
          Alcotest.test_case "announced only when logged or traced" `Quick
            test_announce_when_listened;
        ] );
    ]
