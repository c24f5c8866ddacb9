(* The always-on flight recorder and its trap postmortems: ring
   mechanics, differential parity (recording must be behaviour-
   invisible on example programs, under fault injection, and over
   QCheck-generated programs), byte-deterministic postmortem JSON, and
   the fence-provenance ledger the postmortem embeds. *)

module I = X86.Insn
module R = X86.Reg
module Fl = Obs.Flight
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let build items = Image.Gelf.build ~entry:"main" items

(* Guest-visible state: registers RAX..R15 plus memory. *)
let state g eng =
  ( Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16,
    Memsys.Mem.dump (Core.Engine.memory eng) )

let countdown_items =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 25L));
    Label "loop";
    Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.R R.RBX));
    Ins (I.Load (R.RCX, { I.base = None; index = None; disp = 0x5000L }));
    Ins (I.Alu (I.Add, R.RDX, I.R R.RCX));
    Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
    Ins (I.Cmp (R.RBX, I.I 0L));
    Jcc_lbl (I.Ne, "loop");
    Ins I.Hlt;
  ]

let fact_items =
  [
    Label "main";
    Ins (I.Mov_ri (R.RDI, 10L));
    Call_lbl "fact";
    Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.R R.RAX));
    Ins I.Hlt;
    Label "fact";
    Ins (I.Mov_ri (R.RAX, 1L));
    Label "floop";
    Ins (I.Test (R.RDI, I.R R.RDI));
    Jcc_lbl (I.E, "fdone");
    Ins (I.Alu (I.Imul, R.RAX, I.R R.RDI));
    Ins (I.Dec R.RDI);
    Jmp_lbl "floop";
    Label "fdone";
    Ins I.Ret;
  ]

let example_programs =
  [ ("countdown", countdown_items); ("fact", fact_items) ]

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
    Fl.record r Fl.Tier_published (Int64.of_int i) i
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

let run_with_flight enabled config image =
  let go () =
    let eng = Core.Engine.create config image in
    let g = Core.Engine.run eng in
    Core.Engine.drain_installs eng;
    (state g eng, Option.is_some (Core.Engine.trap g))
  in
  if enabled then go () else with_flight_off go

let test_parity_examples () =
  List.iter
    (fun config ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let on_ = run_with_flight true config image in
          let off = run_with_flight false config image in
          check_bool
            (Printf.sprintf "%s/%s recorder parity" config.Core.Config.name
               pname)
            true (on_ = off))
        example_programs)
    [ Core.Config.qemu; Core.Config.risotto ]

let inject_corpus =
  [
    [ Core.Inject.Nth (Core.Inject.Compile, 1) ];
    [ Core.Inject.Always Core.Inject.Compile ];
    [
      Core.Inject.Seeded
        { site = Core.Inject.Compile; seed = 42L; permille = 500 };
    ];
    [ Core.Inject.Nth (Core.Inject.Decode, 3) ];
    [ Core.Inject.Always Core.Inject.Decode ];
  ]

let test_parity_under_injection () =
  List.iter
    (fun plan ->
      let config = { Core.Config.risotto with Core.Config.inject = plan } in
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let on_ = run_with_flight true config image in
          let off = run_with_flight false config image in
          check_bool
            (Printf.sprintf "%s under injection: recorder parity" pname)
            true (on_ = off))
        example_programs)
    inject_corpus

(* Random straight-line bodies inside a counted loop (the test_tiers
   shape): every block is executed repeatedly, so the recorder sees
   block-enter traffic on the hot path it claims not to perturb. *)
let arb_looped_body =
  let open QCheck in
  let reg = map R.of_index (int_range 0 3) in
  let disp = map (fun k -> Int64.of_int (0x5000 + (8 * k))) (int_range 0 7) in
  let mem_op = map (fun disp -> { I.base = None; index = None; disp }) disp in
  let alu = oneofl [ I.Add; I.Sub; I.And; I.Or; I.Xor ] in
  let insn =
    oneof
      [
        map (fun (r, i) -> I.Mov_ri (r, Int64.of_int i)) (pair reg small_int);
        map (fun (r, m) -> I.Load (r, m)) (pair reg mem_op);
        map (fun (m, r) -> I.Store (m, I.R r)) (pair mem_op reg);
        map (fun (op, r, r2) -> I.Alu (op, r, I.R r2)) (triple alu reg reg);
        oneofl [ I.Mfence; I.Nop ];
      ]
  in
  set_print
    (fun (n, items) ->
      Printf.sprintf "iters=%d\n%s" n
        (String.concat "\n"
           (List.filter_map
              (function Ins i -> Some (Fmt.str "%a" I.pp i) | _ -> None)
              items)))
    (map
       (fun (iters, insns) ->
         let body = List.map (fun i -> Ins i) insns in
         ( iters,
           [
             Label "main";
             Ins (I.Mov_ri (R.R15, Int64.of_int iters));
             Label "loop";
           ]
           @ body
           @ [
               Ins (I.Alu (I.Sub, R.R15, I.I 1L));
               Ins (I.Cmp (R.R15, I.I 0L));
               Jcc_lbl (I.Ne, "loop");
               Ins I.Hlt;
             ] ))
       (pair (int_range 4 12) (small_list insn)))

let flight_differential_prop =
  QCheck.Test.make ~name:"recorder on = recorder off (looped programs)"
    ~count:200 arb_looped_body (fun (_, items) ->
      let image = build items in
      List.for_all
        (fun config ->
          run_with_flight true config image
          = run_with_flight false config image)
        [ Core.Config.qemu; Core.Config.risotto ])

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
  let eng = Core.Engine.create trap_config (build countdown_items) in
  let g = Core.Engine.run eng in
  check_bool "injected decode fault traps" true
    (Core.Engine.trap g <> None);
  Report.Json.to_string (Core.Engine.postmortem_json eng ~reason:"test")

let test_postmortem_deterministic () =
  let a = postmortem_string () in
  let b = postmortem_string () in
  check_bool "two identical runs, byte-identical postmortems" true (a = b);
  check_bool "schema stamped" true
    (contains a {|"schema":"risotto.postmortem.v1"|});
  check_bool "trapping thread's ring includes the trap event" true
    (contains a {|"kind":"trap"|});
  check_bool "fence ledgers embedded" true (contains a {|"fence_ledgers"|})

let test_postmortem_deterministic_with_metrics () =
  (* Wall-clock histograms and .ns/.us gauges are excluded from the
     dump, so even a metrics-on postmortem is byte-stable (after a
     registry reset, since counters are process-cumulative). *)
  Obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.disable ())
    (fun () ->
      Obs.Metrics.reset ();
      let a = postmortem_string () in
      Obs.Metrics.reset ();
      let b = postmortem_string () in
      check_bool "metrics-on postmortems byte-identical" true (a = b);
      check_bool "metrics slice present" true (contains a {|"counters"|});
      check_bool "wall-clock histograms excluded" true
        (not (contains a "request_to_publish")))

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
      let eng = Core.Engine.create trap_config (build countdown_items) in
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
      let image = build [ Label "main"; Jmp_lbl "main" ] in
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
  let eng = Core.Engine.create Core.Config.risotto (build items) in
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
      let eng = Core.Engine.create Core.Config.risotto (build items) in
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
        ] );
      ( "fence provenance",
        [
          Alcotest.test_case "ledger records merges" `Quick
            test_fence_ledger_records_merges;
          Alcotest.test_case "metrics counters" `Quick
            test_fence_metrics_counters;
        ] );
    ]
