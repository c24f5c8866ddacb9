(* The dispatch layer: TB chaining, the per-thread jump cache and
   hot-trace superblocks.  The core claim under test is that none of it
   is observable in guest results — chained/superblocked execution is
   state-identical to the unchained baseline on example programs, on
   QCheck-generated programs, and under fault injection — while the
   stats prove the fast paths actually engaged. *)

module I = X86.Insn
module R = X86.Reg
module Op = Tcg.Op
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
  [
    ("chained", config);
    ("unchained", { config with Core.Config.chain = false });
    ("traced", { config with Core.Config.trace_threshold = 3 });
  ]

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
   two blocks joined by an unconditional Goto_tb — the seam a
   superblock merges fences and memory ops across. *)
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
  let g, eng =
    run_config { Core.Config.risotto with Core.Config.trace_threshold = 3 }
      image
  in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "edges patched" true (st.Core.Engine.chained > 0);
  check_bool "chain hits" true (st.Core.Engine.chain_hits > 0);
  check_bool "superblock formed" true (st.Core.Engine.superblocks >= 1);
  check_bool "fewer dispatches than loop iterations" true
    (st.Core.Engine.blocks_executed < 25);
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
  let config =
    { Core.Config.risotto with Core.Config.chain = false; trace_threshold = 3 }
  in
  let g, eng = run_config config image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_int "no edges" 0 st.Core.Engine.chained;
  check_int "no chain hits" 0 st.Core.Engine.chain_hits;
  check_int "no superblocks (need chaining)" 0 st.Core.Engine.superblocks;
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
          let run chain trace_threshold =
            let config =
              {
                Core.Config.risotto with
                Core.Config.inject = plan;
                chain;
                trace_threshold;
              }
            in
            let g, eng = run_config config image in
            (state g eng, Core.Engine.trap g)
          in
          let s1, t1 = run true 3 in
          let s2, t2 = run false 0 in
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
  let eng =
    Core.Engine.create
      { Core.Config.risotto with Core.Config.trace_threshold = 3 }
      image
  in
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
(* Superblock stitching: interp-differential vs the block sequence     *)

let translate_at config image pc =
  let fe =
    Core.Frontend.create config image
      (Linker.Link.resolve image (Linker.Idl.parse Linker.Hostlib.idl_text))
  in
  Tcg.Pipeline.run config.Core.Config.passes (Core.Frontend.translate fe pc)

let interp_env () =
  let mem = Memsys.Mem.create () in
  let env =
    Tcg.Interp.create_env
      ~helpers:(fun name _ -> raise (Tcg.Interp.No_helper name))
      mem
  in
  (* Deterministic non-trivial starting state. *)
  for r = 0 to 15 do
    env.Tcg.Interp.temps.(Op.guest_reg r) <- Int64.of_int (100 + (7 * r))
  done;
  env.Tcg.Interp.temps.(R.index R.RSP) <- Core.Engine.stack_top 0;
  env

(* Run [a] then (on a Next_tb exit into it) [b]; return the final
   guest-visible interp state. *)
let interp_state blocks_by_pc first env =
  let rec go pc steps =
    if steps > 64 then Alcotest.fail "interp runaway"
    else
      match List.assoc_opt pc blocks_by_pc with
      | None -> ()
      | Some b -> (
          match Tcg.Interp.exec_block env b with
          | Tcg.Interp.Next_tb pc' | Tcg.Interp.Jump pc' -> go pc' (steps + 1)
          | Tcg.Interp.Halted -> ()
          | Tcg.Interp.Trapped (k, c) ->
              Alcotest.fail (Printf.sprintf "interp trap %s: %s" k c))
  in
  go first 0;
  ( Array.sub env.Tcg.Interp.temps 0 16,
    Memsys.Mem.dump env.Tcg.Interp.mem )

let superblock_differential_case config items =
  let image = build items in
  let pc_a = image.Image.Gelf.entry in
  let a = translate_at config image pc_a in
  let pc_b = Int64.add pc_a (Int64.of_int a.Tcg.Block.guest_len) in
  let b = translate_at config image pc_b in
  let stitched = Tcg.Pipeline.run config.Core.Config.passes (Tcg.Block.concat [ a; b ]) in
  let seq = interp_state [ (pc_a, a); (pc_b, b) ] pc_a (interp_env ()) in
  let sup = interp_state [ (pc_a, stitched) ] pc_a (interp_env ()) in
  seq = sup

let big_straightline_items =
  (* > 32 instructions: the frontend splits this into two blocks joined
     by an unconditional Goto_tb, i.e. a mergeable seam. *)
  let body =
    List.concat_map
      (fun k ->
        let m = { I.base = None; index = None; disp = Int64.of_int (0x5000 + (8 * (k mod 6))) } in
        [
          Ins (I.Store (m, I.R R.RAX));
          Ins (I.Load (R.RBX, m));
          Ins (I.Alu (I.Add, R.RAX, I.R R.RBX));
          Ins I.Mfence;
        ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  (Label "main" :: body) @ [ Ins I.Hlt ]

let test_superblock_differential_hand () =
  List.iter
    (fun config ->
      check_bool
        (config.Core.Config.name ^ " stitched = sequential")
        true
        (superblock_differential_case config big_straightline_items);
      (* The stitch must actually help under fence merging: fewer or
         equal fences than the two blocks separately. *)
      let image = build big_straightline_items in
      let pc_a = image.Image.Gelf.entry in
      let a = translate_at config image pc_a in
      let pc_b = Int64.add pc_a (Int64.of_int a.Tcg.Block.guest_len) in
      let b = translate_at config image pc_b in
      let stitched =
        Tcg.Pipeline.run config.Core.Config.passes (Tcg.Block.concat [ a; b ])
      in
      check_bool
        (config.Core.Config.name ^ " stitched fences <= sum")
        true
        (Tcg.Fenceopt.count stitched.Tcg.Block.ops
        <= Tcg.Fenceopt.count a.Tcg.Block.ops + Tcg.Fenceopt.count b.Tcg.Block.ops))
    Core.Config.all

let arb_straightline_body =
  let open QCheck in
  let reg = map R.of_index (int_range 0 5) in
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
        map (fun r -> I.Inc r) reg;
        map (fun r -> I.Dec r) reg;
        oneofl [ I.Mfence; I.Nop ];
      ]
  in
  set_print
    (fun items ->
      String.concat "\n"
        (List.filter_map
           (function Ins i -> Some (Fmt.str "%a" I.pp i) | _ -> None)
           items))
    (map
       (fun insns ->
         (* Pad past the 32-insn block cap so the program always splits
            into (at least) two blocks with a straight-line seam. *)
         let insns = insns @ List.concat (List.map (fun i -> [ i; I.Nop ]) insns) in
         let pad = List.init 40 (fun _ -> I.Nop) in
         (Label "main" :: List.map (fun i -> Ins i) (insns @ pad)) @ [ Ins I.Hlt ])
       (small_list insn))

let superblock_differential_prop =
  QCheck.Test.make ~name:"stitched superblock = block sequence (interp)"
    ~count:150 arb_straightline_body (fun items ->
      List.for_all
        (fun config -> superblock_differential_case config items)
        [ Core.Config.qemu; Core.Config.risotto ])

(* ------------------------------------------------------------------ *)
(* Cache round-trips and edge invalidation                             *)

let test_roundtrip_invalidates_edges () =
  let path = Filename.temp_file "risotto" ".rstc" in
  let image = build countdown_items in
  let config = { Core.Config.risotto with Core.Config.trace_threshold = 3 } in
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  check_bool "hot run clean" true (g.Core.Engine.trap = None);
  let st = Core.Engine.stats eng in
  check_bool "edges live" true (Core.Engine.chained_edges eng > 0);
  check_bool "superblock live" true (st.Core.Engine.superblocks >= 1);
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
  let config = { Core.Config.risotto with Core.Config.trace_threshold = 3 } in
  let eng = Core.Engine.create config image in
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

(* Allocation gate: a Parsec kernel under the risotto preset allocates
   at most [max_words_per_block] minor words per executed block,
   translation included (DESIGN.md, "Execution core").  Minor-word
   counts are deterministic, so the bound needs no noise band. *)
let max_words_per_block = 140.

let test_allocation_gate () =
  let b = Harness.Parsec.find "freqmine" in
  let spec = { b.Harness.Parsec.spec with Harness.Kernel.iters = 6000 } in
  let w0 = Gc.minor_words () in
  let g, eng = Harness.Kernel.run_dbt Core.Config.risotto spec in
  let words = Gc.minor_words () -. w0 in
  check_bool "kernel halted cleanly" true (Core.Engine.trap g = None && g.Core.Engine.finished);
  let blocks = (Core.Engine.stats eng).Core.Engine.blocks_executed in
  let per_block = words /. float_of_int blocks in
  if per_block > max_words_per_block then
    Alcotest.failf "%.1f minor words per executed block (bound %.0f)" per_block
      max_words_per_block

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
        ] );
      ( "fast paths",
        [
          Alcotest.test_case "chain, jump-cache and superblock stats engage"
            `Quick test_stats_engage;
          Alcotest.test_case "--no-chain disables chaining and traces" `Quick
            test_no_chain_disables_everything;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated behind patched edges" `Quick
            test_trap_isolated_through_chained_edge;
        ] );
      ( "superblocks",
        [
          Alcotest.test_case "hand-written stitch differential" `Quick
            test_superblock_differential_hand;
          QCheck_alcotest.to_alcotest superblock_differential_prop;
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
