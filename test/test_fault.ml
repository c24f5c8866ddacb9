(* The fault-isolation layer: typed traps, per-thread fault containment,
   interpreter fallback under injected backend failures, lazy link trap
   stubs, the run_concurrent watchdog, and persistent-cache recovery. *)

module I = X86.Insn
module R = X86.Reg
module F = Core.Fault
module Inj = Core.Inject
module C = Dbt_corpus
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Injection plans                                                     *)

let test_inject_nth () =
  let t = Inj.create [ Inj.Nth (Inj.Compile, 3) ] in
  let fired = List.init 5 (fun _ -> Inj.fire t Inj.Compile) in
  check_bool "only the 3rd fires" true
    (fired = [ false; false; true; false; false ]);
  check_int "occurrences counted" 5 (Inj.count t Inj.Compile);
  check_int "other sites unaffected" 0 (Inj.count t Inj.Decode)

let test_inject_seeded_deterministic () =
  let seq plan =
    let t = Inj.create plan in
    List.init 200 (fun _ -> Inj.fire t Inj.Decode)
  in
  let plan seed = [ Inj.Seeded { site = Inj.Decode; seed; permille = 300 } ] in
  check_bool "same seed, same schedule" true (seq (plan 42L) = seq (plan 42L));
  check_bool "different seed, different schedule" true
    (seq (plan 42L) <> seq (plan 43L));
  let hits = List.filter Fun.id (seq (plan 42L)) in
  check_bool "some occurrences fire" true (hits <> []);
  check_bool "not all occurrences fire" true (List.length hits < 200)

let test_inject_parse () =
  check_bool "plan parses" true
    (Inj.plan_of_string "nth:compile:1,always:decode,seeded:host-call:42:250"
    = Ok
        [
          Inj.Nth (Inj.Compile, 1);
          Inj.Always Inj.Decode;
          Inj.Seeded { site = Inj.Host_call; seed = 42L; permille = 250 };
        ]);
  check_bool "bad site rejected" true
    (match Inj.plan_of_string "always:flux" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Fault isolation between guest threads                               *)

let test_decode_fault_isolated () =
  let image = C.build C.countdown_5 in
  let eng = Core.Engine.create Core.Config.risotto image in
  let good = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
  (* Thread 1 starts outside the text section: its first block is a
     decode trap. *)
  let bad_pc = 0xDEAD0L in
  let bad = Core.Engine.spawn eng ~tid:1 ~entry:bad_pc () in
  (match Core.Engine.run_concurrent eng [ good; bad ] with
  | Core.Engine.Completed _ -> ()
  | Core.Engine.Exhausted _ -> Alcotest.fail "watchdog should not fire");
  check_bool "good thread unaffected" true
    (good.Core.Engine.finished && good.Core.Engine.trap = None);
  check_i64 "good thread completed its work" 77L (Core.Engine.reg good R.R13);
  (match bad.Core.Engine.trap with
  | Some f ->
      check_bool "decode fault" true (f.F.kind = F.Decode_fault);
      check_bool "faulting pc recorded" true (f.F.pc = Some bad_pc);
      check_bool "faulting tid recorded" true (f.F.tid = Some 1)
  | None -> Alcotest.fail "bad thread should have trapped");
  check_int "one trap counted" 1 (Core.Engine.stats eng).Core.Engine.traps

(* A register byte past 15, or an index byte past 0x3F, is a bad
   encoding like any other: the block it starts traps its thread, and
   nothing escapes the engine. *)
let test_bad_register_byte_traps () =
  let base = 0x1000L in
  List.iter
    (fun (name, text, bad_pc) ->
      let image =
        { Image.Gelf.entry = base; text_base = base; text; symbols = []; imports = []; plt = [] }
      in
      let g = Core.Engine.run (Core.Engine.create Core.Config.risotto image) in
      match g.Core.Engine.trap with
      | Some f ->
          check_bool (name ^ ": decode fault") true (f.F.kind = F.Decode_fault);
          check_bool (name ^ ": faulting pc") true (f.F.pc = Some bad_pc);
          check_bool (name ^ ": thread 0") true (f.F.tid = Some 0)
      | None -> Alcotest.fail (name ^ ": thread should have trapped"))
    [
      (* inc with register byte 200, then hlt *)
      ("register byte 0xC8", "\x07\xC8\x92", base);
      (* nop, then a load whose index byte is 0x40, then hlt *)
      ("index byte 0x40 mid-block", "\x90\x03\x00\x01\x40\x00\x00\x00\x00\x92", Int64.succ base);
    ]

(* ------------------------------------------------------------------ *)
(* Interpreter fallback when the backend cannot compile                *)

let test_interp_fallback_correct () =
  List.iter
    (fun plan ->
      let image = C.build C.countdown_5 in
      let clean = Core.Engine.create Core.Config.risotto image in
      let g_clean = Core.Engine.run clean in
      let cfg = { Core.Config.risotto with inject = plan } in
      let eng = Core.Engine.create cfg image in
      let g = Core.Engine.run eng in
      check_bool "no trap" true (g.Core.Engine.trap = None);
      check_bool "fallback observed" true
        ((Core.Engine.stats eng).Core.Engine.interp_fallbacks > 0);
      List.iter
        (fun r ->
          check_i64
            (Printf.sprintf "reg %s agrees" (R.name r))
            (Core.Engine.reg g_clean r) (Core.Engine.reg g r))
        R.all)
    [ [ Inj.Always Inj.Compile ]; [ Inj.Nth (Inj.Compile, 1) ] ]

(* ------------------------------------------------------------------ *)
(* Host-call injection                                                 *)

let sqrt_items =
  [
    Label "main";
    Ins (I.Mov_ri (R.RDI, Int64.bits_of_float 2.0));
    Call_lbl "sqrt@plt";
    Ins (I.Mov_rr (R.R13, R.RAX));
    Ins I.Hlt;
  ]

let test_host_call_injection () =
  let image =
    Image.Gelf.build ~entry:"main"
      ~imports:[ Harness.Guest_libs.import "sqrt" ]
      sqrt_items
  in
  let cfg =
    { Core.Config.risotto with inject = [ Inj.Nth (Inj.Host_call, 1) ] }
  in
  let eng = Core.Engine.create cfg image in
  let g = Core.Engine.run eng in
  (match g.Core.Engine.trap with
  | Some f -> check_bool "link fault" true (f.F.kind = F.Link_fault)
  | None -> Alcotest.fail "injected host-call failure should trap");
  (* Without injection the same image completes. *)
  let eng2 = Core.Engine.create Core.Config.risotto image in
  let g2 = Core.Engine.run eng2 in
  check_bool "clean run completes" true (g2.Core.Engine.trap = None)

(* ------------------------------------------------------------------ *)
(* Lazy link trap stubs                                                *)

let mystery_import =
  { Image.Gelf.name = "mystery"; guest_impl = [ Label "mystery@impl"; Ins I.Ret ] }

let mystery_idl = Linker.Idl.parse "i64 mystery(i64);\nf64 sqrt(f64);"

let test_link_trap_stub () =
  let image =
    Image.Gelf.build ~entry:"main" ~imports:[ mystery_import ]
      [ Label "main"; Call_lbl "mystery@plt"; Ins I.Hlt ]
  in
  (* The IDL promises [mystery] but the host library has no such
     symbol: resolution records the cause and the PLT slot becomes a
     trap stub. *)
  let eng = Core.Engine.create ~idl:mystery_idl Core.Config.risotto image in
  check_bool "cause recorded" true
    (Linker.Link.unresolved_cause (Core.Engine.links eng) "mystery"
    = Some Linker.Link.Missing_host_symbol);
  let g = Core.Engine.run eng in
  (match g.Core.Engine.trap with
  | Some f -> check_bool "link fault on call" true (f.F.kind = F.Link_fault)
  | None -> Alcotest.fail "calling an unresolvable import should trap")

let test_link_trap_is_lazy () =
  (* Same unresolvable import, but never called: no fault. *)
  let image =
    Image.Gelf.build ~entry:"main" ~imports:[ mystery_import ]
      [ Label "main"; Ins (I.Mov_ri (R.R13, 9L)); Ins I.Hlt ]
  in
  let eng = Core.Engine.create ~idl:mystery_idl Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_i64 "completed" 9L (Core.Engine.reg g R.R13)

let test_no_idl_signature_still_falls_back () =
  (* An import the IDL does not describe keeps the existing behaviour:
     guest translation of the bundled implementation, no trap. *)
  let image =
    Image.Gelf.build ~entry:"main"
      ~imports:[ Harness.Guest_libs.import "sqrt" ]
      sqrt_items
  in
  let eng = Core.Engine.create ~idl:[] Core.Config.risotto image in
  check_bool "cause is missing signature" true
    (Linker.Link.unresolved_cause (Core.Engine.links eng) "sqrt"
    = Some Linker.Link.No_idl_signature);
  let g = Core.Engine.run eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "guest sqrt ran" true
    (abs_float (Int64.float_of_bits (Core.Engine.reg g R.R13) -. sqrt 2.0)
    < 1e-6)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)

let test_watchdog_exhausted () =
  let image = C.build [ Label "main"; Jmp_lbl "main" ] in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
  match Core.Engine.run_concurrent ~max_blocks:10 eng [ g ] with
  | Core.Engine.Exhausted { blocks; live_threads; threads } ->
      check_int "budget consumed" 10 blocks;
      check_int "one live thread" 1 live_threads;
      check_int "threads reported" 1 (List.length threads);
      check_bool "thread not finished" true (not g.Core.Engine.finished)
  | Core.Engine.Completed _ -> Alcotest.fail "spin loop cannot complete"

(* ------------------------------------------------------------------ *)
(* Persistent-cache robustness                                         *)

let with_cache_file f =
  let image = C.build C.countdown_5 in
  let eng1 = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng1 in
  let path = Filename.temp_file "risotto_fault" ".tc" in
  let saved = Core.Engine.save_cache eng1 path in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f ~image ~path ~saved ~expect:(Core.Engine.reg g1 R.R13))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Loading a damaged cache must fail with Cache_corrupt, leave the code
   cache untouched, and still allow a correct cold run. *)
let expect_cold_recovery ~image ~path ~expect name =
  let eng = Core.Engine.create Core.Config.risotto image in
  (match Core.Engine.load_cache eng path with
  | Error f ->
      check_bool (name ^ ": cache fault") true (f.F.kind = F.Cache_corrupt)
  | Ok _ -> Alcotest.failf "%s: load should fail" name);
  let g = Core.Engine.run eng in
  check_bool (name ^ ": cold start translated") true
    ((Core.Engine.stats eng).Core.Engine.blocks_translated > 0);
  check_i64 (name ^ ": correct result after recovery") expect
    (Core.Engine.reg g R.R13)

let test_cache_roundtrip () =
  with_cache_file (fun ~image ~path ~saved ~expect ->
      let eng = Core.Engine.create Core.Config.risotto image in
      (match Core.Engine.load_cache eng path with
      | Ok n -> check_int "all entries loaded" saved n
      | Error f -> Alcotest.failf "load failed: %s" (F.to_string f));
      let g = Core.Engine.run eng in
      check_int "no retranslation" 0
        (Core.Engine.stats eng).Core.Engine.blocks_translated;
      check_i64 "same result" expect (Core.Engine.reg g R.R13))

let test_cache_corrupt_magic () =
  with_cache_file (fun ~image ~path ~saved:_ ~expect ->
      let s = read_file path in
      write_file path ("X" ^ String.sub s 1 (String.length s - 1));
      expect_cold_recovery ~image ~path ~expect "corrupt magic")

let test_cache_truncated () =
  with_cache_file (fun ~image ~path ~saved:_ ~expect ->
      let s = read_file path in
      (* Cut inside the last entry: the staged parse must discard
         everything, not commit the entries before the cut. *)
      write_file path (String.sub s 0 (String.length s - 5));
      expect_cold_recovery ~image ~path ~expect "truncated")

let test_cache_wrong_config () =
  with_cache_file (fun ~image ~path ~saved:_ ~expect ->
      let eng = Core.Engine.create Core.Config.qemu image in
      (match Core.Engine.load_cache eng path with
      | Error f ->
          check_bool "config mismatch is a cache fault" true
            (f.F.kind = F.Cache_corrupt)
      | Ok _ -> Alcotest.fail "wrong-config load should fail");
      let g = Core.Engine.run eng in
      check_i64 "qemu cold run correct" expect (Core.Engine.reg g R.R13))

let test_cache_read_injection () =
  with_cache_file (fun ~image ~path ~saved:_ ~expect ->
      let cfg =
        { Core.Config.risotto with inject = [ Inj.Nth (Inj.Cache_read, 1) ] }
      in
      let eng = Core.Engine.create cfg image in
      (match Core.Engine.load_cache eng path with
      | Error f ->
          check_bool "injected fault surfaces" true (f.F.kind = F.Cache_corrupt)
      | Ok _ -> Alcotest.fail "injected cache read should fail the load");
      let g = Core.Engine.run eng in
      check_i64 "recovered" expect (Core.Engine.reg g R.R13))

let () =
  Alcotest.run "fault"
    [
      ( "injection",
        [
          Alcotest.test_case "nth occurrence" `Quick test_inject_nth;
          Alcotest.test_case "seeded determinism" `Quick
            test_inject_seeded_deterministic;
          Alcotest.test_case "plan parsing" `Quick test_inject_parse;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "decode fault isolated to thread" `Quick
            test_decode_fault_isolated;
          Alcotest.test_case "bad register byte traps" `Quick
            test_bad_register_byte_traps;
          Alcotest.test_case "watchdog reports exhaustion" `Quick
            test_watchdog_exhausted;
        ] );
      ( "degraded modes",
        [
          Alcotest.test_case "interp fallback correctness" `Quick
            test_interp_fallback_correct;
          Alcotest.test_case "host-call injection traps" `Quick
            test_host_call_injection;
        ] );
      ( "link traps",
        [
          Alcotest.test_case "missing host symbol traps on call" `Quick
            test_link_trap_stub;
          Alcotest.test_case "trap stubs are lazy" `Quick test_link_trap_is_lazy;
          Alcotest.test_case "no IDL signature still falls back" `Quick
            test_no_idl_signature_still_falls_back;
        ] );
      ( "persistent cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "corrupt magic" `Quick test_cache_corrupt_magic;
          Alcotest.test_case "truncated" `Quick test_cache_truncated;
          Alcotest.test_case "wrong config" `Quick test_cache_wrong_config;
          Alcotest.test_case "cache-read injection" `Quick
            test_cache_read_injection;
        ] );
    ]
