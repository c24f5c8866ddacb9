(* The dispatch layer: the per-thread jump cache, then the table, then
   translation.  The stats prove the jump cache serves nearly every
   dispatch, a generation bump (reset, cache reload) makes it refill,
   and a trap stays with its thread.  Parity between eager and degraded
   runs is here for the 16 kernels and in test_tiers over the rest of
   the shared corpus (Dbt_corpus). *)

module I = X86.Insn
module R = X86.Reg
module C = Dbt_corpus
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fast paths                                                          *)

let test_stats_engage () =
  let image = C.build C.countdown in
  let g, eng = C.run_config Core.Config.risotto image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  (* One dispatch per guest block; only first visits miss, and every
     later visit of the loop's blocks hits the jump cache. *)
  check_int "one lookup per guest block" st.Core.Engine.blocks_executed
    st.Core.Engine.lookups;
  check_int "misses are the translations" st.Core.Engine.blocks_translated
    (st.Core.Engine.lookups - st.Core.Engine.cache_hits);
  check_int "jump cache serves every hit" st.Core.Engine.cache_hits
    st.Core.Engine.jmp_cache_hits;
  check_bool "jump-cache hits on the loop" true (st.Core.Engine.jmp_cache_hits > 0);
  check_int "chain_hits stays 0" 0 st.Core.Engine.chain_hits;
  (* fn returns to the same pc on every call: the computed jump (ret)
     is served by the per-thread jump cache too. *)
  let looped_calls =
    [
      Label "main";
      Ins (I.Mov_ri (R.R15, 8L));
      Label "loop";
      Call_lbl "fn";
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
      Label "fn";
      Ins (I.Inc R.RAX);
      Ins I.Ret;
    ]
  in
  let _, eng = C.run_config Core.Config.risotto (C.build looped_calls) in
  let st = Core.Engine.stats eng in
  check_int "every repeated return hits the jump cache"
    (st.Core.Engine.lookups - st.Core.Engine.blocks_translated)
    st.Core.Engine.jmp_cache_hits

let test_trap_isolated_behind_jcache () =
  (* Two threads share a hot loop, then jump to a per-thread
     continuation in R8.  The bad thread's continuation is undecodable:
     it must trap alone, after dispatching the same translated loop
     through its own jump cache as the good thread did through its. *)
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 12L));
      Label "loop";
      Ins (I.Alu (I.Add, R.RDX, I.R R.RBX));
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      (* computed jump: push the per-thread continuation and ret *)
      Ins (I.Push R.R8);
      Ins I.Ret;
      Label "good_end";
      Ins I.Hlt;
    ]
  in
  let image = C.build items in
  let good_end = List.assoc "good_end" image.Image.Gelf.symbols in
  let eng = Core.Engine.create Core.Config.risotto image in
  let entry = image.Image.Gelf.entry in
  let good =
    Core.Engine.spawn eng ~tid:0 ~entry ~regs:[ (R.R8, good_end) ] ()
  in
  let bad =
    Core.Engine.spawn eng ~tid:1 ~entry ~regs:[ (R.R8, 0xDEAD000L) ] ()
  in
  (match Core.Engine.run_concurrent eng [ good; bad ] with
  | Core.Engine.Completed _ -> ()
  | Core.Engine.Exhausted _ -> Alcotest.fail "watchdog fired");
  check_bool "good thread clean" true (good.Core.Engine.trap = None);
  check_i64 "good thread result" 78L (Core.Engine.reg good R.RDX);
  check_bool "bad thread trapped" true (bad.Core.Engine.trap <> None);
  check_i64 "bad thread got through the loop" 78L (Core.Engine.reg bad R.RDX);
  let st = Core.Engine.stats eng in
  (* Each thread enters the loop block 11 times: the first entry
     misses its own jump cache, the other 10 hit it. *)
  check_int "both threads hit their own jump caches" (2 * 10)
    st.Core.Engine.jmp_cache_hits;
  check_int "exactly one trap" 1 st.Core.Engine.traps

(* ------------------------------------------------------------------ *)
(* Cache round-trips and generation bumps                              *)

let test_roundtrip_bumps_generation () =
  let path = Filename.temp_file "risotto" ".rstc" in
  let image = C.build C.countdown in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_bool "hot run clean" true (g.Core.Engine.trap = None);
  let gen0 = Core.Engine.generation eng in
  ignore (Core.Engine.save_cache eng path);
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "loaded blocks" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  check_int "generation bumped" (gen0 + 1) (Core.Engine.generation eng);
  let before = Core.Engine.stats eng in
  let g2 =
    Core.Engine.spawn eng ~tid:7 ~entry:image.Image.Gelf.entry ()
  in
  Core.Engine.run_thread eng g2;
  let after = Core.Engine.stats eng in
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "rerun result" (Core.Engine.reg g R.RDX) (Core.Engine.reg g2 R.RDX);
  check_int "no retranslation after reload" before.Core.Engine.blocks_translated
    after.Core.Engine.blocks_translated;
  check_bool "jump cache refilled on rerun" true
    (after.Core.Engine.jmp_cache_hits > before.Core.Engine.jmp_cache_hits);
  Sys.remove path

let test_reset_flushes_table () =
  let image = C.build C.countdown in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng in
  let gen0 = Core.Engine.generation eng in
  let translated = (Core.Engine.stats eng).Core.Engine.blocks_translated in
  Core.Engine.reset eng;
  check_bool "generation bumped" true (Core.Engine.generation eng > gen0);
  let g2 = Core.Engine.spawn eng ~tid:3 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "retranslated after reset" true
    ((Core.Engine.stats eng).Core.Engine.blocks_translated > translated)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let test_scheduler_staggered_threads () =
  (* Threads finish at different times: the live counter must track
     them without re-filtering, and all must complete. *)
  let items =
    [
      Label "main";
      Label "loop";
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd ({ I.base = Some R.R14; index = None; disp = 0L }, R.R8));
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let image = C.build items in
  let eng = Core.Engine.create Core.Config.risotto image in
  let counts = [ 3; 11; 7; 1; 19; 5 ] in
  let threads =
    List.mapi
      (fun tid n ->
        Core.Engine.spawn eng ~tid ~entry:image.Image.Gelf.entry
          ~regs:[ (R.R14, 0x7000L); (R.R15, Int64.of_int n) ]
          ())
      counts
  in
  (match Core.Engine.run_concurrent eng threads with
  | Core.Engine.Completed ts ->
      check_int "all threads reported" (List.length counts) (List.length ts)
  | Core.Engine.Exhausted _ -> Alcotest.fail "watchdog fired");
  check_i64 "sum of all increments"
    (Int64.of_int (List.fold_left ( + ) 0 counts))
    (Memsys.Mem.load (Core.Engine.memory eng) 0x7000L)

let test_scheduler_watchdog_budget () =
  let items = [ Label "main"; Label "spin"; Jmp_lbl "spin" ] in
  let image = C.build items in
  let eng = Core.Engine.create Core.Config.risotto image in
  let threads =
    List.init 2 (fun tid ->
        Core.Engine.spawn eng ~tid ~entry:image.Image.Gelf.entry ())
  in
  match Core.Engine.run_concurrent ~max_blocks:10 eng threads with
  | Core.Engine.Completed _ -> Alcotest.fail "spin loops completed?"
  | Core.Engine.Exhausted { blocks; live_threads; threads = ts } ->
      check_int "budget honoured" 10 blocks;
      check_int "both live" 2 live_threads;
      check_int "threads reported" 2 (List.length ts)

(* ------------------------------------------------------------------ *)
(* The 16 PARSEC/Phoenix kernels                                       *)

let sum f runs = List.fold_left (fun acc (_, (r : C.fingerprint)) -> acc + f r.stats) 0 runs

(* Eager and all-degraded (every block on the TCG interpreter) passes,
   run once for the tests below. *)
let kernel_passes =
  lazy
    (let risotto = Core.Config.risotto in
     (C.kernel_pass risotto, C.kernel_pass (C.degrade C.all_degraded risotto)))

let test_kernel_parity () =
  let (eager, _), (degraded, _) = Lazy.force kernel_passes in
  List.iter2
    (fun (name, (e : C.fingerprint)) (_, (d : C.fingerprint)) ->
      check_bool (name ^ " eager = degraded state") true (e.state = d.state);
      check_int (name ^ " dispatches") e.stats.blocks_executed d.stats.blocks_executed)
    eager degraded;
  check_bool "blocks degraded" true (sum (fun s -> s.Core.Engine.interp_fallbacks) degraded > 0)

(* Nearly every dispatch of the hot kernel loops is served by the jump
   cache: only first visits miss it (measured 0.9978). *)
let min_jcache_hit_rate = 0.95

let test_kernel_jcache_hits () =
  let (eager, _), _ = Lazy.force kernel_passes in
  let hits = sum (fun s -> s.Core.Engine.jmp_cache_hits) eager in
  let rate = float_of_int hits /. float_of_int (sum (fun s -> s.Core.Engine.lookups) eager) in
  if rate < min_jcache_hit_rate then
    Alcotest.failf "jump-cache hit rate %.4f (bound %.2f)" rate min_jcache_hit_rate

(* Allocation gate: a pass over the kernels under the risotto preset
   allocates at most [max_words_per_block] minor words per executed
   guest block, translation included (DESIGN.md, "Execution core").
   Minor-word counts are deterministic, so the bound needs no noise
   band: it is the measured 88.2 plus 5%. *)
let max_words_per_block = 93.

let test_allocation_gate () =
  let (runs, words), _ = Lazy.force kernel_passes in
  List.iter
    (fun (name, (r : C.fingerprint)) ->
      check_bool (name ^ " halted cleanly") true (r.trap = None && r.finished))
    runs;
  let per_block = words /. float_of_int (sum (fun s -> s.Core.Engine.blocks_executed) runs) in
  if per_block > max_words_per_block then
    Alcotest.failf "%.1f minor words per executed block (bound %.0f)" per_block
      max_words_per_block

(* Translation allocation gate: translating (decode, frontend, TCG
   passes, backend, code-cache insert) a straight-line guest made of
   every instruction shape of the benchmark's cold-code workload, 32
   instructions per block, allocates at most [max_translate_words] minor
   words per block (DESIGN.md, "Array-form TCG IR").  A warm-up pass
   first grows the per-domain scratch buffers, so the count does not
   depend on what ran before; it is deterministic and needs no noise
   band: the bound is the measured 879.2 plus 5%. *)
let max_translate_words = 923.

let test_translation_allocation_gate () =
  let blocks = 64 and per_block = Core.Frontend.max_block_insns in
  let image = C.build (C.cold_items blocks) in
  let fe = Core.Frontend.create Core.Config.risotto image Linker.Link.empty in
  let rec starts pc n =
    if n = 0 then []
    else
      let b = Core.Frontend.translate fe pc in
      check_int "full block" per_block b.Tcg.Block.guest_insns;
      pc :: starts (Int64.add pc (Int64.of_int b.Tcg.Block.guest_len)) (n - 1)
  in
  let pcs = starts image.Image.Gelf.entry blocks in
  let translate_all () =
    let eng = Core.Engine.create Core.Config.risotto image in
    let w0 = Gc.minor_words () in
    List.iter (fun pc -> ignore (Sys.opaque_identity (Core.Engine.fetch eng pc))) pcs;
    let words = Gc.minor_words () -. w0 in
    check_int "every block translated" blocks (Core.Engine.stats eng).Core.Engine.blocks_translated;
    words /. float_of_int blocks
  in
  ignore (translate_all ());
  let words = translate_all () in
  if words > max_translate_words then
    Alcotest.failf "%.1f minor words per translated block (bound %.0f)" words max_translate_words

let () =
  Alcotest.run "dispatch"
    [
      ( "parity",
        [
          Alcotest.test_case "kernel suite: eager = degraded" `Quick
            test_kernel_parity;
        ] );
      ( "fast paths",
        [
          Alcotest.test_case "jump-cache stats engage" `Quick test_stats_engage;
          Alcotest.test_case "kernel suite jump-cache hit rate" `Quick
            test_kernel_jcache_hits;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated behind the jump cache" `Quick
            test_trap_isolated_behind_jcache;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "save/load bumps the generation" `Quick
            test_roundtrip_bumps_generation;
          Alcotest.test_case "reset flushes table, retranslates" `Quick
            test_reset_flushes_table;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "staggered thread completion" `Quick
            test_scheduler_staggered_threads;
          Alcotest.test_case "watchdog budget with live threads" `Quick
            test_scheduler_watchdog_budget;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per executed block" `Quick
            test_allocation_gate;
          Alcotest.test_case "minor words per translated block" `Quick
            test_translation_allocation_gate;
        ] );
    ]
