(* Native code and the TCG interpreter.  Every block is compiled when it
   is translated; a block the backend refuses (here: an injected compile
   fault) runs on the interpreter instead.  The core claim mirrors
   test_dispatch: which blocks run where is not observable in guest
   results.  Eager, all-degraded and mixed-degraded runs are
   state-identical on example programs, on QCheck-generated looped
   programs, and under fault injection — while the stats prove the
   interpreter actually ran, and reset / load_cache restart the
   per-block counts from scratch. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

let build items = Image.Gelf.build ~entry:"main" items

(* Guest-visible state: registers RAX..R15 plus memory. *)
let state g eng =
  ( Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16,
    Memsys.Mem.dump (Core.Engine.memory eng) )

(* Every compile fails, so every block runs on the interpreter. *)
let all_degraded = [ Core.Inject.Always Core.Inject.Compile ]

(* About half the compiles fail: native and interpreted blocks alternate
   along the same paths. *)
let mixed_degraded =
  [ Core.Inject.Seeded { site = Core.Inject.Compile; seed = 42L; permille = 500 } ]

(* The preset and the two degraded mixes.  A variant's compile faults
   add to the config's own plan. *)
let tier_variants config =
  let degrade plan = { config with Core.Config.inject = config.Core.Config.inject @ plan } in
  [
    ("eager", config);
    ("all-degraded", degrade all_degraded);
    ("mixed-degraded", degrade mixed_degraded);
  ]

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (g, eng)

(* ------------------------------------------------------------------ *)
(* Example programs (shared shapes with test_dispatch)                 *)

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

(* A loop whose body overflows the block cap: the hot path spans a
   straight-line seam, so one half can be native and the other
   interpreted. *)
let split_items =
  let body =
    List.concat_map
      (fun k ->
        let m =
          { I.base = None; index = None; disp = Int64.of_int (0x6000 + (8 * k)) }
        in
        [
          Ins (I.Store (m, I.R R.RSI));
          Ins (I.Load (R.RDI, m));
          Ins (I.Alu (I.Add, R.RSI, I.R R.RDI));
        ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
  in
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 20L));
    Ins (I.Mov_ri (R.RSI, 7L));
    Label "loop";
  ]
  @ body
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

(* A loop whose block cap falls between [cmp] and [jne]: the lazy flags
   cross a block boundary, so every interpreted/native seam must carry
   them.  Both operands are nonzero registers, so losing either flag
   global changes the trip count. *)
let flags_seam_items =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 6L));
    Ins (I.Mov_ri (R.RCX, 2L));
    Jmp_lbl "loop";
    Label "loop";
  ]
  @ List.init 30 (fun _ -> Ins (I.Inc R.RDX))
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.R R.RCX));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

let example_programs =
  [
    ("countdown", countdown_items);
    ("fact", fact_items);
    ("split", split_items);
    ("flags-seam", flags_seam_items);
  ]

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)

let test_tier_parity_examples () =
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
            (tier_variants config))
        example_programs)
    Core.Config.all

let inject_corpus =
  [
    [ Core.Inject.Nth (Core.Inject.Compile, 1) ];
    (* One block of flags-seam left on the interpreter, the other
       native, in both orders. *)
    [ Core.Inject.Nth (Core.Inject.Compile, 2) ];
    [ Core.Inject.Nth (Core.Inject.Compile, 3) ];
    [ Core.Inject.Always Core.Inject.Compile ];
    [ Core.Inject.Seeded { site = Core.Inject.Compile; seed = 42L; permille = 500 } ];
    [ Core.Inject.Nth (Core.Inject.Decode, 3) ];
  ]

let test_tier_parity_under_injection () =
  (* Compile faults demote to the interpreter with unchanged semantics;
     decode faults fire identically at translation.  Guest state and
     trap presence must match across every variant. *)
  List.iter
    (fun plan ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let reference = ref None in
          List.iter
            (fun (vname, config) ->
              let config =
                { config with Core.Config.inject = plan @ config.Core.Config.inject }
              in
              let g, eng = run_config config image in
              let s = (state g eng, Option.is_some (Core.Engine.trap g)) in
              match !reference with
              | None -> reference := Some s
              | Some r ->
                  check_bool
                    (Printf.sprintf "%s/%s parity under injection" pname vname)
                    true (s = r))
            (tier_variants Core.Config.risotto))
        example_programs)
    inject_corpus

(* QCheck: random straight-line bodies inside a counted loop, so every
   block runs more than once on whichever side it landed. *)
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
        map (fun r -> I.Inc r) reg;
        map (fun r -> I.Dec r) reg;
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
           [ Label "main"; Ins (I.Mov_ri (R.R15, Int64.of_int iters)); Label "loop" ]
           @ body
           @ [
               Ins (I.Alu (I.Sub, R.R15, I.I 1L));
               Ins (I.Cmp (R.R15, I.I 0L));
               Jcc_lbl (I.Ne, "loop");
               Ins I.Hlt;
             ] ))
       (pair (int_range 4 12) (small_list insn)))

let tier_differential_prop =
  QCheck.Test.make ~name:"eager = degraded (looped programs)"
    ~count:200 arb_looped_body (fun (_, items) ->
      List.for_all
        (fun config ->
          let image = build items in
          let states =
            List.map
              (fun (_, config) ->
                let g, eng = run_config config image in
                (state g eng, Option.is_some (Core.Engine.trap g)))
              (tier_variants config)
          in
          match states with
          | [] -> false
          | r :: rest -> List.for_all (fun s -> s = r) rest)
        [ Core.Config.qemu; Core.Config.risotto ])

(* ------------------------------------------------------------------ *)
(* Engagement: degraded blocks visibly run and are reported            *)

let mixed_config = { Core.Config.risotto with Core.Config.inject = mixed_degraded }

(* A mixed run executes on both sides and says so. *)
let test_degraded_blocks_engage () =
  let image = build countdown_items in
  let g, eng = run_config mixed_config image in
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
      let g, eng = run_config config (build items) in
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
    example_programs

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
  let image = build items in
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
  let image = build countdown_items in
  let config = { Core.Config.risotto with Core.Config.inject = all_degraded } in
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
  let image = build countdown_items in
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

(* Every instruction shape of the cold-code benchmark (test_dispatch's
   translation gate), as one straight line of full blocks. *)
let cold_items =
  let shapes =
    [
      I.Load (R.RAX, I.based R.RBX 8L);
      I.Store (I.based R.RBX 136L, I.R R.RAX);
      I.Alu (I.Add, R.RCX, I.I 3L);
      I.Alu (I.Xor, R.RDX, I.R R.RCX);
      I.Fp (I.Fmul, R.RSI, R.RSI);
      I.Load (R.RAX, I.based R.RBX 64L);
      I.Alu (I.Shl, R.RCX, I.I 1L);
      I.Fp (I.Fadd, R.RSI, R.RSI);
      I.Alu (I.Sub, R.RDX, I.I 1L);
      I.Mov_ri (R.R8, 1L);
      I.Lock_xadd (I.based R.R14 0L, R.R8);
      I.Mfence;
    ]
  in
  (Label "main" :: List.init (4 * Core.Frontend.max_block_insns) (fun k ->
       Ins (List.nth shapes (k mod List.length shapes))))
  @ [ Ins I.Hlt ]

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
          let image = build items in
          let eng = Core.Engine.create (List.assoc "all-degraded" (tier_variants config)) image in
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
        (example_programs
        @ (("mem-elim", mem_elim_items) :: ("cold-shapes", cold_items) :: kernels)))
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
