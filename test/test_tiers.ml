(* Native code and the TCG interpreter.  Every block is compiled when it
   is translated; a block the backend refuses (here: an injected compile
   fault) runs on the interpreter instead.  The core claim mirrors
   test_dispatch: which blocks run where is not observable in guest
   results.  Eager, all-degraded and mixed-degraded runs are
   state-identical over the shared corpus (Dbt_corpus: the example
   programs under every fault plan, and generated looped programs),
   while the stats prove the interpreter actually ran, and reset /
   load_cache restart the per-block counts from scratch. *)

module I = X86.Insn
module R = X86.Reg
module C = Dbt_corpus
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)

(* The preset and the two degraded mixes.  A variant's compile faults
   add to the config's own plan. *)
let tier_variants : C.variant list =
  [
    ("eager", C.fingerprint);
    ("all-degraded", fun c -> C.fingerprint (C.degrade C.all_degraded c));
    ("mixed-degraded", fun c -> C.fingerprint (C.degrade C.mixed_degraded c));
  ]

(* Tiers agree on guest state and the trap, not yet on cycles: degraded
   blocks charge none until they charge what their lowering costs
   (ROADMAP), which adds cycles to this key. *)
let outcome (f : C.fingerprint) = (f.state, f.trap)

(* Without a fault plan, every example also runs to its end. *)
let test_tier_parity_examples () =
  C.agree_on_examples ~key:outcome ~plans:[ [] ] tier_variants;
  List.iter
    (fun (config : Core.Config.t) ->
      List.iter
        (fun (pname, items) ->
          let f = C.fingerprint config (C.build items) in
          check_bool (Printf.sprintf "%s/%s halts, no trap" config.name pname) true
            (f.trap = None && f.finished))
        C.examples)
    Core.Config.all

(* Compile faults demote to the interpreter with unchanged semantics;
   decode and host-call faults fire identically at translation. *)
let test_tier_parity_under_injection () =
  C.agree_on_examples ~key:outcome ~plans:C.plans tier_variants

let tier_differential_prop =
  C.agree_on_generated ~name:"eager = degraded (looped programs)" ~count:200 ~key:outcome
    tier_variants

(* ------------------------------------------------------------------ *)
(* Engagement: degraded blocks visibly run and are reported            *)

let mixed_config = C.degrade C.mixed_degraded Core.Config.risotto

(* A mixed run executes on both sides and says so. *)
let test_degraded_blocks_engage () =
  let image = C.build C.countdown in
  let g, eng = C.run_config mixed_config image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "some blocks degraded" true (st.Core.Engine.interp_fallbacks > 0);
  check_bool "interpreter ran" true (st.Core.Engine.interp_execs > 0);
  check_bool "native code ran" true
    (st.Core.Engine.blocks_executed > st.Core.Engine.interp_execs);
  let contains line needle =
    let n = String.length needle and l = String.length line in
    let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  let line = Core.Engine.stats_line eng g in
  check_bool "stats line reports the interpreter" true
    (List.for_all (contains line) [ "interp-execs="; "interp-fallbacks=" ])

(* Every translated block is installed as native code unless its compile
   failed: with one compile fault injected, exactly one block of each
   example program is degraded, and every other block is native. *)
let test_eager_counts_installs () =
  List.iter
    (fun (pname, items) ->
      let config =
        {
          Core.Config.risotto with
          Core.Config.inject = [ Core.Inject.Nth (Core.Inject.Compile, 1) ];
        }
      in
      let g, eng = C.run_config config (C.build items) in
      let st = Core.Engine.stats eng in
      check_bool (pname ^ " no trap") true (g.Core.Engine.trap = None);
      check_int (pname ^ " one fallback") 1 st.Core.Engine.interp_fallbacks;
      check_bool (pname ^ " the entry block is interpreted") true
        (st.Core.Engine.interp_execs > 0);
      let native =
        List.filter
          (fun (pc, _) ->
            match Core.Engine.fetch eng pc with
            | Core.Engine.Native _ -> true
            | Core.Engine.Interp_only _ -> false)
          (Core.Engine.fence_ledgers eng)
      in
      check_int
        (pname ^ " installs = translated - fallbacks")
        (st.Core.Engine.blocks_translated - st.Core.Engine.interp_fallbacks)
        (List.length native))
    C.examples

let test_trap_isolated_across_degraded () =
  (* Two threads share a hot loop of native and degraded blocks, then
     jump to per-thread continuations; the bad one is undecodable and
     must trap alone. *)
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 12L));
      Label "loop";
      Ins (I.Alu (I.Add, R.RDX, I.R R.RBX));
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins (I.Push R.R8);
      Ins I.Ret;
      Label "good_end";
      Ins I.Hlt;
    ]
  in
  let image = C.build items in
  let good_end = List.assoc "good_end" image.Image.Gelf.symbols in
  let eng = Core.Engine.create mixed_config image in
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
  check_int "exactly one trap" 1 (Core.Engine.stats eng).Core.Engine.traps

(* ------------------------------------------------------------------ *)
(* Invalidation: reset and load_cache restart the per-block counts     *)

(* Per-pc execution counts of the hot blocks. *)
let exec_counts eng =
  List.map
    (fun (e : Obs.Profile.entry) -> (e.Obs.Profile.key, e.Obs.Profile.count))
    (Core.Engine.hot_blocks ~limit:max_int eng)

let test_reset_clears_tier_profile () =
  let image = C.build C.countdown in
  let config = C.degrade C.all_degraded Core.Config.risotto in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  let st = Core.Engine.stats eng in
  check_bool "degraded" true (st.Core.Engine.interp_fallbacks >= 1);
  let counts = exec_counts eng in
  Core.Engine.reset eng;
  check_bool "blocks gone with their nodes" true (Core.Engine.hot_blocks eng = []);
  let g2 = Core.Engine.spawn eng ~tid:5 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  let st' = Core.Engine.stats eng in
  check_bool "every block retranslated and degraded again" true
    (st'.Core.Engine.interp_fallbacks = 2 * st.Core.Engine.interp_fallbacks
    && st'.Core.Engine.interp_execs = 2 * st.Core.Engine.interp_execs);
  check_bool "counts restart from zero" true (exec_counts eng = counts)

let test_load_cache_resets_tier_profile () =
  let path = Filename.temp_file "risotto_tiers" ".rstc" in
  let image = C.build C.countdown in
  (* The entry block is degraded, so the cache holds only the others. *)
  let config =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Core.Inject.Nth (Core.Inject.Compile, 1) ];
    }
  in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  check_bool "first run clean" true (g1.Core.Engine.trap = None);
  let counts = exec_counts eng in
  let saved = Core.Engine.save_cache eng path in
  check_int "degraded block not saved"
    ((Core.Engine.stats eng).Core.Engine.blocks_translated - 1)
    saved;
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_int "loaded blocks" saved n
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  check_bool "counts zeroed by reload" true (Core.Engine.hot_blocks eng = []);
  let before = Core.Engine.stats eng in
  let g2 = Core.Engine.spawn eng ~tid:7 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "counts restart from zero" true (exec_counts eng = counts);
  let after = Core.Engine.stats eng in
  (* The degraded block survives the reload on the interpreter, and
     nothing is translated again. *)
  check_int "degraded block interpreted as before" before.Core.Engine.interp_execs
    (after.Core.Engine.interp_execs - before.Core.Engine.interp_execs);
  check_int "no retranslation" before.Core.Engine.blocks_translated
    after.Core.Engine.blocks_translated;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Translation in place                                                *)

(* Accesses through one base register that mem-elim rewrites: a load
   forwarded from a store, one from a load, and a store that overwrites
   a store. *)
let mem_elim_items =
  let at off = I.based R.RBX off in
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 0x5000L));
    Ins (I.Mov_ri (R.RAX, 3L));
    Ins (I.Store (at 8L, I.R R.RAX));
    Ins (I.Load (R.RCX, at 8L));
    Ins (I.Load (R.RDX, at 16L));
    Ins (I.Load (R.RSI, at 16L));
    Ins (I.Store (at 24L, I.R R.RCX));
    Ins (I.Store (at 24L, I.R R.RSI));
    Ins I.Hlt;
  ]

(* The engine runs the passes on the frontend's buffer and copies the
   result out once.  An all-degraded engine keeps that TCG for the
   interpreter, so each block it holds must equal [Pipeline.run] over
   [Frontend.translate], the path that copies first; and
   [Pipeline.run] must leave the raw block it is given unchanged. *)
let test_in_place_matches_run () =
  let kernels =
    List.map
      (fun (b : Harness.Parsec.bench) ->
        (b.Harness.Parsec.spec.Harness.Kernel.name, Harness.Kernel.to_x86 b.Harness.Parsec.spec))
      Harness.Parsec.all
  in
  List.iter
    (fun config ->
      List.iter
        (fun (pname, items) ->
          let image = C.build items in
          let eng = Core.Engine.create (C.degrade C.all_degraded config) image in
          ignore (Core.Engine.run eng);
          let fe = Core.Frontend.create config image (Core.Engine.links eng) in
          let pcs = List.map fst (Core.Engine.fence_ledgers eng) in
          check_bool (pname ^ " translated") true (pcs <> []);
          List.iter
            (fun pc ->
              let name = Printf.sprintf "%s/%s/0x%Lx" config.Core.Config.name pname pc in
              let raw = Core.Frontend.translate fe pc in
              let saved = Array.copy raw.Tcg.Block.ops in
              let copied = Tcg.Pipeline.run config.Core.Config.passes raw in
              check_bool (name ^ " in place = Pipeline.run") true
                (Core.Engine.tcg_block eng pc = copied);
              check_bool (name ^ " input unchanged") true
                (Array.for_all2 ( == ) saved raw.Tcg.Block.ops))
            pcs)
        (C.examples @ (("mem-elim", mem_elim_items) :: ("cold-shapes", C.cold_items 4) :: kernels)))
    Core.Config.all

let () =
  Alcotest.run "tiers"
    [
      ( "parity",
        [
          Alcotest.test_case "eager = degraded on example programs" `Quick
            test_tier_parity_examples;
          Alcotest.test_case "parity under fault injection" `Quick
            test_tier_parity_under_injection;
          QCheck_alcotest.to_alcotest tier_differential_prop;
          Alcotest.test_case "pipeline in place = Pipeline.run" `Quick
            test_in_place_matches_run;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "degraded blocks run and report" `Quick
            test_degraded_blocks_engage;
          Alcotest.test_case "eager run counts every install" `Quick
            test_eager_counts_installs;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated across degraded blocks" `Quick
            test_trap_isolated_across_degraded;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "reset clears the tier profile" `Quick
            test_reset_clears_tier_profile;
          Alcotest.test_case "load_cache resets the tier profile" `Quick
            test_load_cache_resets_tier_profile;
        ] );
    ]
