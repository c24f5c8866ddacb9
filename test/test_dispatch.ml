(* The dispatch layer: TB chaining and the per-thread jump cache.  The
   core claim under test is that neither is observable in guest
   results — chained execution is state-identical to the unchained
   baseline on example programs and under fault injection, with the
   same guest cycles — while the stats prove the fast paths actually
   engaged. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let build items = Image.Gelf.build ~entry:"main" items

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (g, eng)

(* Guest-visible state: registers RAX..R15 plus memory. *)
let state g eng =
  ( Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16,
    Memsys.Mem.dump (Core.Engine.memory eng) )

let variants config =
  [ ("chained", config); ("unchained", { config with Core.Config.chain = false }) ]

(* ------------------------------------------------------------------ *)
(* Example programs                                                    *)

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
  (* The gelf_tool demo image: factorial through call/ret. *)
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

(* A loop whose body overflows the 32-insn block cap, so it splits into
   two blocks joined by an unconditional Goto_tb that chaining
   patches. *)
let split_items =
  let body =
    List.concat_map
      (fun k ->
        let m = { I.base = None; index = None; disp = Int64.of_int (0x6000 + (8 * k)) } in
        [
          Ins (I.Store (m, I.R R.RSI));
          Ins (I.Load (R.RDI, m));
          Ins (I.Alu (I.Add, R.RSI, I.R R.RDI));
        ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
  in
  [ Label "main"; Ins (I.Mov_ri (R.RBX, 20L)); Ins (I.Mov_ri (R.RSI, 7L)); Label "loop" ]
  @ body
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

let example_programs =
  [ ("countdown", countdown_items); ("fact", fact_items); ("split", split_items) ]

let test_chain_parity_examples () =
  List.iter
    (fun config ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let reference = ref None in
          List.iter
            (fun (vname, config) ->
              let g, eng = run_config config image in
              check_bool
                (Printf.sprintf "%s/%s/%s no trap" config.Core.Config.name
                   pname vname)
                true
                (g.Core.Engine.trap = None);
              let s = state g eng in
              match !reference with
              | None -> reference := Some s
              | Some r ->
                  check_bool
                    (Printf.sprintf "%s/%s/%s state" config.Core.Config.name
                       pname vname)
                    true (s = r))
            (variants config))
        example_programs)
    Core.Config.all

let test_chain_does_not_change_cycles () =
  (* Pure chaining executes the same code in the same order: cycle
     counts must be bit-identical to the unchained baseline. *)
  List.iter
    (fun (pname, items) ->
      let image = build items in
      let g1, _ = run_config Core.Config.risotto image in
      let g2, _ =
        run_config { Core.Config.risotto with Core.Config.chain = false } image
      in
      check_int (pname ^ " cycles") (Core.Engine.cycles g1)
        (Core.Engine.cycles g2))
    example_programs

let test_stats_engage () =
  let image = build countdown_items in
  let g, eng = run_config Core.Config.risotto image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "edges patched" true (st.Core.Engine.chained > 0);
  check_bool "chain hits" true (st.Core.Engine.chain_hits > 0);
  (* A chained dispatch runs one guest block. *)
  let _, unchained =
    run_config { Core.Config.risotto with Core.Config.chain = false } image
  in
  check_int "one dispatch per guest block" st.Core.Engine.blocks_executed
    (Core.Engine.stats unchained).Core.Engine.blocks_executed;
  (* fact returns to the same pc on every call: the computed-jump path
     is served by the per-thread jump cache. *)
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
  let _, eng = run_config Core.Config.risotto (build looped_calls) in
  let st = Core.Engine.stats eng in
  check_bool "jump-cache hits on repeated returns" true
    (st.Core.Engine.jmp_cache_hits > 0)

let test_no_chain_disables_everything () =
  let image = build countdown_items in
  let config = { Core.Config.risotto with Core.Config.chain = false } in
  let g, eng = run_config config image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_int "no edges" 0 st.Core.Engine.chained;
  check_int "no chain hits" 0 st.Core.Engine.chain_hits;
  check_int "no edges installed" 0 (Core.Engine.chained_edges eng)

(* ------------------------------------------------------------------ *)
(* Fault-injection corpus: chained = unchained under degraded modes    *)

let inject_corpus =
  [
    [ Core.Inject.Nth (Core.Inject.Compile, 1) ];
    [ Core.Inject.Always Core.Inject.Compile ];
    [ Core.Inject.Seeded { site = Core.Inject.Compile; seed = 42L; permille = 500 } ];
    [ Core.Inject.Nth (Core.Inject.Decode, 3) ];
  ]

let test_chain_parity_under_injection () =
  List.iter
    (fun plan ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let run chain =
            let config =
              { Core.Config.risotto with Core.Config.inject = plan; chain }
            in
            let g, eng = run_config config image in
            (state g eng, Core.Engine.trap g)
          in
          let s1, t1 = run true in
          let s2, t2 = run false in
          check_bool (pname ^ " state parity under injection") true (s1 = s2);
          check_bool (pname ^ " trap parity under injection") true
            (Option.is_some t1 = Option.is_some t2))
        example_programs)
    inject_corpus

let test_trap_isolated_through_chained_edge () =
  (* Two threads share a hot (chained) loop, then jump to a
     per-thread continuation in R8.  The bad thread's continuation is
     undecodable: it must trap alone, after riding the same patched
     edges as the good thread. *)
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
  let image = build items in
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
  check_bool "edges were patched" true (st.Core.Engine.chained > 0);
  check_int "exactly one trap" 1 st.Core.Engine.traps

(* ------------------------------------------------------------------ *)
(* Cache round-trips and edge invalidation                             *)

let test_roundtrip_invalidates_edges () =
  let path = Filename.temp_file "risotto" ".rstc" in
  let image = build countdown_items in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_bool "hot run clean" true (g.Core.Engine.trap = None);
  check_bool "edges live" true (Core.Engine.chained_edges eng > 0);
  let gen0 = Core.Engine.chain_generation eng in
  ignore (Core.Engine.save_cache eng path);
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "loaded blocks" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  check_int "generation bumped" (gen0 + 1) (Core.Engine.chain_generation eng);
  check_int "edges invalidated" 0 (Core.Engine.chained_edges eng);
  let translated_before = (Core.Engine.stats eng).Core.Engine.blocks_translated in
  let g2 =
    Core.Engine.spawn eng ~tid:7 ~entry:image.Image.Gelf.entry ()
  in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "rerun result" (Core.Engine.reg g R.RDX) (Core.Engine.reg g2 R.RDX);
  check_int "no retranslation after reload" translated_before
    (Core.Engine.stats eng).Core.Engine.blocks_translated;
  check_bool "edges re-patched on rerun" true (Core.Engine.chained_edges eng > 0);
  Sys.remove path

let test_reset_flushes_chains () =
  let image = build countdown_items in
  let eng = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng in
  let gen0 = Core.Engine.chain_generation eng in
  let translated = (Core.Engine.stats eng).Core.Engine.blocks_translated in
  check_bool "edges live" true (Core.Engine.chained_edges eng > 0);
  Core.Engine.reset eng;
  check_bool "generation bumped" true (Core.Engine.chain_generation eng > gen0);
  check_int "no edges" 0 (Core.Engine.chained_edges eng);
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
  let image = build items in
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
  let image = build items in
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

type kernel_run = {
  k_name : string;
  k_state : int64 array * (int64 * int64) list;
  k_clean : bool;  (* halted, no trap *)
  k_cycles : int;
  k_stats : Core.Engine.stats;
}

(* One pass over the kernels under [config], and the minor words it
   allocated. *)
let kernel_pass config =
  let w0 = Gc.minor_words () in
  let runs =
    List.map
      (fun (b : Harness.Parsec.bench) ->
        let spec = b.Harness.Parsec.spec in
        let g, eng = Harness.Kernel.run_dbt config spec in
        {
          k_name = spec.Harness.Kernel.name;
          k_state = state g eng;
          k_clean = Core.Engine.trap g = None && g.Core.Engine.finished;
          k_cycles = Core.Engine.cycles g;
          k_stats = Core.Engine.stats eng;
        })
      Harness.Parsec.all
  in
  (runs, Gc.minor_words () -. w0)

let sum f runs = List.fold_left (fun acc r -> acc + f r.k_stats) 0 runs

(* Chained, unchained and all-degraded (every block on the TCG
   interpreter) passes, run once for the tests below. *)
let kernel_passes =
  lazy
    (let risotto = Core.Config.risotto in
     ( kernel_pass risotto,
       kernel_pass { risotto with Core.Config.chain = false },
       kernel_pass
         {
           risotto with
           Core.Config.chain = false;
           inject = [ Core.Inject.Always Core.Inject.Compile ];
         } ))

let test_kernel_parity () =
  let (chained, _), (unchained, _), (degraded, _) = Lazy.force kernel_passes in
  List.iter2
    (fun c u ->
      check_bool (c.k_name ^ " chained = unchained state") true (c.k_state = u.k_state);
      check_int (c.k_name ^ " cycles") u.k_cycles c.k_cycles;
      check_int (c.k_name ^ " dispatches") u.k_stats.Core.Engine.blocks_executed
        c.k_stats.Core.Engine.blocks_executed)
    chained unchained;
  List.iter2
    (fun u d ->
      check_bool (u.k_name ^ " unchained = degraded state") true (u.k_state = d.k_state))
    unchained degraded;
  check_bool "blocks degraded" true (sum (fun s -> s.Core.Engine.interp_fallbacks) degraded > 0)

(* Nearly every dispatch of the hot kernel loops rides a patched
   edge. *)
let min_chain_hit_rate = 0.95

let test_kernel_chain_hits () =
  let (chained, _), _, _ = Lazy.force kernel_passes in
  let hits = sum (fun s -> s.Core.Engine.chain_hits) chained in
  let rate = float_of_int hits /. float_of_int (sum (fun s -> s.Core.Engine.lookups) chained) in
  if rate < min_chain_hit_rate then
    Alcotest.failf "chain-hit rate %.4f (bound %.2f)" rate min_chain_hit_rate

(* Allocation gate: a pass over the kernels under the risotto preset,
   chained or not, allocates at most [max_words_per_block] minor words
   per executed guest block, translation included (DESIGN.md,
   "Execution core").  Minor-word counts are deterministic, so the
   bound needs no noise band. *)
let max_words_per_block = 140.

let test_allocation_gate () =
  let chained, unchained, _ = Lazy.force kernel_passes in
  List.iter
    (fun (name, (runs, words)) ->
      List.iter
        (fun r -> check_bool (r.k_name ^ " halted cleanly") true r.k_clean)
        runs;
      let per_block = words /. float_of_int (sum (fun s -> s.Core.Engine.blocks_executed) runs) in
      if per_block > max_words_per_block then
        Alcotest.failf "%s: %.1f minor words per executed block (bound %.0f)" name per_block
          max_words_per_block)
    [ ("chained", chained); ("unchained", unchained) ]

let () =
  Alcotest.run "dispatch"
    [
      ( "parity",
        [
          Alcotest.test_case "chained = unchained on example programs" `Quick
            test_chain_parity_examples;
          Alcotest.test_case "chaining leaves cycles unchanged" `Quick
            test_chain_does_not_change_cycles;
          Alcotest.test_case "parity under fault injection" `Quick
            test_chain_parity_under_injection;
          Alcotest.test_case "kernel suite: chained = unchained = degraded" `Quick
            test_kernel_parity;
        ] );
      ( "fast paths",
        [
          Alcotest.test_case "chain and jump-cache stats engage" `Quick
            test_stats_engage;
          Alcotest.test_case "--no-chain disables chaining" `Quick
            test_no_chain_disables_everything;
          Alcotest.test_case "kernel suite chain-hit rate" `Quick
            test_kernel_chain_hits;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated behind patched edges" `Quick
            test_trap_isolated_through_chained_edge;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "save/load round-trip invalidates edges" `Quick
            test_roundtrip_invalidates_edges;
          Alcotest.test_case "reset flushes chains and retranslates" `Quick
            test_reset_flushes_chains;
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
        ] );
    ]
