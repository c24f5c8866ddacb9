(* The tier ladder: interp-first execution (tier 0), threshold-triggered
   baseline compiles — inline or on a background domain — (tier 1), and
   profile-guided superblock promotion with deoptimization (tier 2).
   The core claim mirrors test_dispatch: none of it is observable in
   guest results.  Tier0-only, fully synchronous, tiered-sync and
   tiered-async runs are state-identical on example programs, on
   QCheck-generated looped programs, and under fault injection — while
   the stats prove each tier actually engaged, and reset / load_cache
   discard queued installs and retrain from scratch. *)

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

(* The four rungs under comparison.  [tier0-only] never reaches the
   threshold, so every block stays on the interpreter; [sync-all] is
   the pre-ladder configuration (immediate backend compile, static
   trace trigger); the tiered variants climb the full ladder, inline
   or through the background service. *)
let tier_variants config =
  [
    ( "tier0-only",
      {
        config with
        Core.Config.jit_threshold = max_int;
        trace_threshold = 0;
      } );
    ("sync-all", { config with Core.Config.trace_threshold = 3 });
    ( "tiered-sync",
      {
        config with
        Core.Config.jit_threshold = 2;
        trace_threshold = 4;
        sync_compile = true;
      } );
    ( "tiered-async",
      {
        config with
        Core.Config.jit_threshold = 2;
        trace_threshold = 4;
        sync_compile = false;
      } );
  ]

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (* Settle background installs before reading any stats; a no-op for
     the synchronous variants. *)
  Core.Engine.drain_installs eng;
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
   straight-line seam, so tier-2 promotion stitches across it. *)
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
   them. *)
let flags_seam_items =
  [ Label "main"; Ins (I.Mov_ri (R.RBX, 6L)); Jmp_lbl "loop"; Label "loop" ]
  @ List.init 30 (fun _ -> Ins (I.Inc R.RDX))
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
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
  (* Compile faults demote to the interpreter (Degraded) with unchanged
     semantics, at enqueue-determined sites even for background
     compiles; decode faults fire identically at translation.  Guest
     state and trap presence must match across the whole ladder. *)
  List.iter
    (fun plan ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          let reference = ref None in
          List.iter
            (fun (vname, config) ->
              let config = { config with Core.Config.inject = plan } in
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
   block crosses the tier-1 threshold and trains a branch profile. *)
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
  QCheck.Test.make ~name:"tier ladder = tier0-only (looped programs)"
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
(* Engagement: every tier visibly fires and is reported                *)

let test_tiers_engage_sync () =
  let image = build countdown_items in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let g, eng = run_config config image in
  let st = Core.Engine.stats eng in
  check_bool "no trap" true (g.Core.Engine.trap = None);
  check_bool "tier-0 interp execs" true (st.Core.Engine.interp_execs > 0);
  check_bool "tier-1 installs" true (st.Core.Engine.tier1_installed >= 1);
  check_bool "tier-2 superblocks" true (st.Core.Engine.superblocks >= 1);
  check_int "nothing dropped" 0 st.Core.Engine.installs_dropped;
  let contains line needle =
    let n = String.length needle and l = String.length line in
    let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  let line = Core.Engine.stats_line eng g in
  check_bool "stats line reports tiers" true
    (List.for_all (contains line)
       [ "interp-execs="; "tier1-installed="; "deopts=" ]);
  (* The install-queue fields are zero-suppressed: present exactly when
     the corresponding counter is non-zero.  This run dropped nothing
     (checked above), so installs-dropped must be absent, not "=0". *)
  check_bool "installs-dropped suppressed at zero" false
    (contains line "installs-dropped=");
  check_bool "install-hwm tracks its counter" true
    (contains line "install-hwm=" = (st.Core.Engine.install_hwm > 0))

let test_tiers_engage_async () =
  (* Drive the loop manually, draining the background service between
     dispatches: install timing becomes deterministic, so the block is
     published mid-run, retrains its branch profile and promotes to a
     superblock — all off the background domain. *)
  let image = build countdown_items in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 6;
      sync_compile = false;
    }
  in
  let svc = Parallel.Pool.service_create ~workers:1 () in
  let eng = Core.Engine.create ~install_service:svc config image in
  let th =
    Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry ()
  in
  let steps = ref 0 in
  while (not th.Core.Engine.finished) && !steps < 2000 do
    Core.Engine.step_block eng th;
    Core.Engine.drain_installs eng;
    incr steps
  done;
  check_bool "finished" true th.Core.Engine.finished;
  check_bool "no trap" true (th.Core.Engine.trap = None);
  let st = Core.Engine.stats eng in
  check_bool "tier-0 interp execs" true (st.Core.Engine.interp_execs > 0);
  check_bool "tier-1 installs (async)" true (st.Core.Engine.tier1_installed >= 1);
  check_bool "tier-2 superblocks (async)" true (st.Core.Engine.superblocks >= 1);
  check_bool "queue high-water tracked" true (st.Core.Engine.install_hwm >= 1);
  check_i64 "countdown result" 325L (Core.Engine.reg th R.RDX);
  Parallel.Pool.service_shutdown svc

let test_trap_mid_ladder_isolated () =
  (* Two threads share a hot loop riding the full async ladder, then
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
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
      sync_compile = false;
    }
  in
  let eng = Core.Engine.create config image in
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
  Core.Engine.drain_installs eng;
  check_bool "good thread clean" true (good.Core.Engine.trap = None);
  check_i64 "good thread result" 78L (Core.Engine.reg good R.RDX);
  check_bool "bad thread trapped" true (bad.Core.Engine.trap <> None);
  check_i64 "bad thread got through the loop" 78L (Core.Engine.reg bad R.RDX);
  check_int "exactly one trap" 1 (Core.Engine.stats eng).Core.Engine.traps

(* ------------------------------------------------------------------ *)
(* Invalidation: reset and load_cache against in-flight installs       *)

let test_reset_drops_inflight_installs () =
  (* Block the (private) background worker, run a whole tiered program
     — every compile job queues behind the blocker — then reset and
     release.  The late results carry the pre-reset generation and must
     be discarded, not published into the flushed chain table. *)
  let image = build countdown_items in
  let svc = Parallel.Pool.service_create ~workers:1 () in
  let sem = Semaphore.Binary.make false in
  Parallel.Pool.service_submit svc (fun () -> Semaphore.Binary.acquire sem);
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 1;
      trace_threshold = 0;
      sync_compile = false;
    }
  in
  let eng = Core.Engine.create ~install_service:svc config image in
  let g1 = Core.Engine.run eng in
  check_bool "blocked run clean (all interp)" true (g1.Core.Engine.trap = None);
  check_bool "compiles queued behind blocker" true
    (Parallel.Pool.service_pending svc >= 2);
  check_int "nothing installed while blocked" 0
    (Core.Engine.stats eng).Core.Engine.tier1_installed;
  let gen0 = Core.Engine.chain_generation eng in
  Core.Engine.reset eng;
  check_bool "generation bumped" true (Core.Engine.chain_generation eng > gen0);
  Semaphore.Binary.release sem;
  Core.Engine.drain_installs eng;
  let st = Core.Engine.stats eng in
  check_bool "stale installs dropped" true (st.Core.Engine.installs_dropped >= 1);
  check_int "still nothing installed" 0 st.Core.Engine.tier1_installed;
  (* The reset engine retrains from scratch and converges to the same
     guest state. *)
  let g2 = Core.Engine.spawn eng ~tid:3 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  Core.Engine.drain_installs eng;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result after reset" (Core.Engine.reg g1 R.RDX)
    (Core.Engine.reg g2 R.RDX);
  Parallel.Pool.service_shutdown svc

let test_reset_clears_tier_profile () =
  let image = build countdown_items in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  let st = Core.Engine.stats eng in
  check_bool "trained" true
    (st.Core.Engine.tier1_installed >= 1 && st.Core.Engine.superblocks >= 1);
  let supers_before = st.Core.Engine.superblocks in
  Core.Engine.reset eng;
  check_bool "profile gone with the nodes" true (Core.Engine.hot_blocks eng = []);
  let g2 = Core.Engine.spawn eng ~tid:5 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "ladder retrained after reset" true
    ((Core.Engine.stats eng).Core.Engine.superblocks > supers_before)

let test_load_cache_resets_tier_profile () =
  let path = Filename.temp_file "risotto_tiers" ".rstc" in
  let image = build countdown_items in
  let config =
    {
      Core.Config.risotto with
      Core.Config.jit_threshold = 2;
      trace_threshold = 4;
    }
  in
  let eng = Core.Engine.create config image in
  let g1 = Core.Engine.run eng in
  check_bool "hot run clean" true (g1.Core.Engine.trap = None);
  let supers_before = (Core.Engine.stats eng).Core.Engine.superblocks in
  check_bool "superblock trained" true (supers_before >= 1);
  ignore (Core.Engine.save_cache eng path);
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_bool "loaded blocks" true (n > 0)
  | Error f -> Alcotest.fail (Core.Fault.to_string f));
  (* clear_links zeroed every execution counter and tier profile: a
     resumed run must not promote on pre-reload training. *)
  check_bool "profile reset by reload" true (Core.Engine.hot_blocks eng = []);
  let g2 = Core.Engine.spawn eng ~tid:7 ~entry:image.Image.Gelf.entry () in
  Core.Engine.run_thread eng g2;
  check_bool "rerun clean" true (g2.Core.Engine.trap = None);
  check_i64 "same result" (Core.Engine.reg g1 R.RDX) (Core.Engine.reg g2 R.RDX);
  check_bool "superblock re-forms from fresh profile" true
    ((Core.Engine.stats eng).Core.Engine.superblocks > supers_before);
  Sys.remove path

let () =
  Alcotest.run "tiers"
    [
      ( "parity",
        [
          Alcotest.test_case "ladder = tier0-only on example programs" `Quick
            test_tier_parity_examples;
          Alcotest.test_case "parity under fault injection" `Quick
            test_tier_parity_under_injection;
          QCheck_alcotest.to_alcotest tier_differential_prop;
        ] );
      ( "engagement",
        [
          Alcotest.test_case "sync ladder: all tiers fire and report" `Quick
            test_tiers_engage_sync;
          Alcotest.test_case "async ladder: background installs publish" `Quick
            test_tiers_engage_async;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "trap isolated across the async ladder" `Quick
            test_trap_mid_ladder_isolated;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "reset drops in-flight installs" `Quick
            test_reset_drops_inflight_installs;
          Alcotest.test_case "reset clears the tier profile" `Quick
            test_reset_clears_tier_profile;
          Alcotest.test_case "load_cache resets the tier profile" `Quick
            test_load_cache_resets_tier_profile;
        ] );
    ]
