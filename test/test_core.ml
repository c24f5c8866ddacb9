(* The DBT engine end-to-end: frontend mapping schemes, backend
   lowering, the block cache, and — most importantly — differential
   testing of every configuration against the x86 reference
   interpreter. *)

module I = X86.Insn
module R = X86.Reg
module Op = Tcg.Op
module E = Axiom.Event
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

module C = Dbt_corpus

(* The x86 reference interpreter's end state, as [Dbt_corpus.state]
   shapes the DBT's. *)
let oracle_state image =
  let s =
    X86.Interp.create ~code:image.Image.Gelf.text ~base:image.Image.Gelf.text_base
      ~entry:image.Image.Gelf.entry ()
  in
  s.X86.Interp.regs.(R.index R.RSP) <- Core.Engine.stack_top 0;
  ignore (X86.Interp.run s);
  (s.X86.Interp.regs, Memsys.Mem.dump s.X86.Interp.mem)

let dbt_state config image = (C.fingerprint config image).C.state

(* ------------------------------------------------------------------ *)
(* Frontend                                                            *)

let translate config items =
  let image = C.build items in
  let fe =
    Core.Frontend.create config image
      (Linker.Link.resolve image (Linker.Idl.parse Linker.Hostlib.idl_text))
  in
  Core.Frontend.translate fe image.Image.Gelf.entry

let count_fence_kind k ops =
  Array.fold_left
    (fun n op -> match op with Op.Mb (f, _, _) when f = k -> n + 1 | _ -> n)
    0 ops

let load_store_items =
  [
    Label "main";
    Ins (I.Load (R.RAX, { I.base = None; index = None; disp = 0x5000L }));
    Ins (I.Store ({ I.base = None; index = None; disp = 0x5008L }, I.R R.RAX));
    Ins I.Hlt;
  ]

let test_frontend_risotto_fences () =
  (* Figure 7a: ld; Frm and Fww; st. *)
  let b = translate Core.Config.tcg_ver load_store_items in
  let optimized = Tcg.Pipeline.run Core.Config.tcg_ver.Core.Config.passes b in
  (* After fence merging, Frm·Fww merges into one Fmm. *)
  check_int "fences merged" 1 (Tcg.Fenceopt.count optimized.Tcg.Block.ops);
  let raw =
    translate { Core.Config.tcg_ver with passes = [] } load_store_items
  in
  check_int "one Frm" 1 (count_fence_kind E.F_rm raw.Tcg.Block.ops);
  check_int "one Fww" 1 (count_fence_kind E.F_ww raw.Tcg.Block.ops)

let test_frontend_qemu_fences () =
  (* Figure 2: Fmr; ld and Fmw; st — never mergeable (leading fences
     are separated by the accesses). *)
  let raw = translate { Core.Config.qemu with passes = [] } load_store_items in
  check_int "one Fmr" 1 (count_fence_kind E.F_mr raw.Tcg.Block.ops);
  check_int "one Fmw" 1 (count_fence_kind E.F_mw raw.Tcg.Block.ops)

let test_frontend_no_fences () =
  let raw =
    translate { Core.Config.no_fences with passes = [] } load_store_items
  in
  check_int "no fences" 0 (Tcg.Fenceopt.count raw.Tcg.Block.ops)

let test_frontend_block_cap () =
  let many = List.init 40 (fun _ -> Ins I.Nop) in
  let b =
    translate Core.Config.qemu ((Label "main" :: many) @ [ Ins I.Hlt ])
  in
  check_int "block capped" Core.Frontend.max_block_insns b.Tcg.Block.guest_insns

let test_frontend_mfence () =
  let items = [ Label "main"; Ins I.Mfence; Ins I.Hlt ] in
  let raw = translate { Core.Config.qemu with passes = [] } items in
  check_int "mfence -> Fsc" 1 (count_fence_kind E.F_sc raw.Tcg.Block.ops);
  let nf = translate { Core.Config.no_fences with passes = [] } items in
  check_int "no-fences keeps mfence as Fsc" 1
    (count_fence_kind E.F_sc nf.Tcg.Block.ops);
  let image = C.build items in
  let eng = Core.Engine.create Core.Config.no_fences image in
  check_bool "no-fences lowers it to DMBFF" true
    (Array.exists
       (function Arm.Insn.Dmb Arm.Insn.Full -> true | _ -> false)
       (Core.Engine.lookup_block eng image.Image.Gelf.entry))

(* Every preset emits, in order, the fences that Schemes.x86_to_tcg —
   the mapping the checker verifies — gives for the same accesses. *)
let test_frontend_follows_table () =
  let mem disp = { I.base = None; index = None; disp } in
  let items =
    [
      Label "main";
      Ins (I.Load (R.RAX, mem 0x5000L));
      Ins (I.Store (mem 0x5008L, I.R R.RAX));
      Ins (I.Push R.RBX);
      Ins (I.Pop R.RBX);
      Ins I.Mfence;
      Ins (I.Lock_cmpxchg (mem 0x5010L, R.RCX));
      Ins (I.Lock_xadd (mem 0x5018L, R.RCX));
      Ins I.Hlt;
    ]
  in
  let accesses =
    Litmus.Dsl.(
      prog "accesses" [ ("X", 0) ]
        [
          [
            ld "a" "X"; st "X" 1; st "X" 2; ld "b" "X"; mfence;
            cas_x86 "X" 0 1; cas_x86 "X" 1 2;
          ];
        ])
  in
  List.iter
    (fun (c : Core.Config.t) ->
      let dbt =
        List.filter_map
          (function Op.Mb (f, _, _) -> Some f | _ -> None)
          (Array.to_list (translate { c with passes = [] } items).Tcg.Block.ops)
      in
      let checker =
        List.concat_map
          (fun (t : Litmus.Ast.thread) ->
            List.filter_map
              (function Litmus.Ast.Fence f -> Some f | _ -> None)
              t.code)
          (Mapping.Schemes.x86_to_tcg c.fences accesses).threads
      in
      Alcotest.(check (list string))
        c.name
        (List.map E.fence_name checker)
        (List.map E.fence_name dbt))
    Core.Config.all

(* ------------------------------------------------------------------ *)
(* Backend                                                             *)

let test_backend_cas_lowering () =
  let cas_items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RAX, 0L));
      Ins (I.Mov_ri (R.RCX, 1L));
      Ins (I.Lock_cmpxchg ({ I.base = None; index = None; disp = 0x5000L }, R.RCX));
      Ins I.Hlt;
    ]
  in
  let compile config =
    let image = C.build cas_items in
    let eng = Core.Engine.create config image in
    Core.Engine.lookup_block eng image.Image.Gelf.entry
  in
  let has p code = Array.exists p code in
  let casal = compile Core.Config.risotto in
  check_bool "casal emitted" true
    (has (function Arm.Insn.Cas { acq = true; rel = true; _ } -> true | _ -> false) casal);
  let rmw2 =
    compile { Core.Config.risotto with rmw = Mapping.Schemes.Risotto_rmw2 }
  in
  check_bool "exclusives emitted" true
    (has (function Arm.Insn.Ldxr _ -> true | _ -> false) rmw2);
  check_bool "DMBFF brackets" true
    (Array.length
       (Array.of_list
          (List.filter
             (function Arm.Insn.Dmb Arm.Insn.Full -> true | _ -> false)
             (Array.to_list rmw2)))
    >= 2);
  let helper = compile Core.Config.qemu in
  check_bool "helper path" true
    (has
       (function
         | Arm.Insn.Blr_helper ("helper_cmpxchg_gcc10", _, _) -> true
         | _ -> false)
       helper)

(* The frontend lowers RMWs to helper calls under the helper
   strategies, so the backend rejects an [Rmw] op there.  The engine
   then keeps such a block on the TCG interpreter, which computes what
   the native RMW1 and RMW2 lowerings compute. *)
let test_backend_rejects_helper_atomic () =
  let rax = Op.guest_reg (R.index R.RAX)
  and rbx = Op.guest_reg (R.index R.RBX)
  and rcx = Op.guest_reg (R.index R.RCX) in
  let block op =
    Tcg.Block.make ~guest_pc:0x1000L ~guest_len:4 ~guest_insns:1
      [| Op.Rmw { op; old = rax; addr = rbx; expect = Op.no_temp; src = rcx }; Op.Exit_halt |]
  in
  let setup mem regs =
    Memsys.Mem.store mem 0x5000L 35L;
    regs.(R.index R.RBX) <- 0x5000L;
    regs.(R.index R.RCX) <- 7L
  in
  let interp b =
    let mem = Memsys.Mem.create () in
    let env = Tcg.Interp.create_env mem in
    setup mem env.Tcg.Interp.temps;
    check_bool "interp halts" true (Tcg.Interp.exec_block env b = Tcg.Interp.Halted);
    (env.Tcg.Interp.temps.(R.index R.RAX), Memsys.Mem.load mem 0x5000L)
  in
  let native config b =
    let mem = Memsys.Mem.create () in
    let th = Arm.Machine.create_thread 0 in
    setup mem th.Arm.Machine.regs;
    let code = Core.Backend.compile config b in
    check_bool "native halts" true
      (Arm.Machine.exec_block (Arm.Machine.create_shared mem) th code
      = Arm.Machine.Halted);
    (th.Arm.Machine.regs.(R.index R.RAX), Memsys.Mem.load mem 0x5000L)
  in
  List.iter
    (fun op ->
      let b = block op in
      check_bool "rejected under qemu" true
        (match Core.Backend.compile Core.Config.qemu b with
        | _ -> false
        | exception Core.Fault.Fault { Core.Fault.kind = Core.Fault.Backend_fault; _ } -> true);
      let degraded = interp b in
      List.iter
        (fun config ->
          check_bool
            (config.Core.Config.name ^ ": interpreter = native")
            true
            (degraded = native config b))
        [ Core.Config.risotto; { Core.Config.risotto with rmw = Mapping.Schemes.Risotto_rmw2 } ])
    [ `Xadd; `Xchg ]

(* The backend and the checker read one RMW table: for each inline
   lowering and op, the host code of a one-op block, read back as table
   steps, is the step sequence of the litmus code the checker verifies
   ([Schemes.lower_rmw]) for the same pair. *)
let test_backend_agrees_with_lower_rmw () =
  let module A = Arm.Insn in
  let module S = Mapping.Schemes in
  let rax = Op.guest_reg (R.index R.RAX)
  and rbx = Op.guest_reg (R.index R.RBX)
  and rcx = Op.guest_reg (R.index R.RCX)
  and rdx = Op.guest_reg (R.index R.RDX) in
  (* Host code back to steps; an exclusive loop's branches must close
     it (cbnz to its load, a cas's b.ne past the cbnz). *)
  let host_steps op code =
    let excl at ld st ~len =
      (match (code.(at + len - 1), op) with
      | A.Cbnz (_, t), _ when t = at -> ()
      | _ -> Alcotest.fail "exclusive loop does not retry at its load");
      (match (op, code.(at + 2)) with
      | `Cas, A.Bcc (A.Ne, t) when t = at + len -> ()
      | `Cas, _ -> Alcotest.fail "cas loop does not exit past its cbnz"
      | (`Xadd | `Xchg), _ -> ());
      let acq = match ld with A.Ldaxr _ -> true | _ -> false
      and rel = match st with A.Stlxr _ -> true | _ -> false in
      S.Exclusive { acq; rel }
    in
    let rec go at =
      if at >= Array.length code then []
      else
        match (op, code.(at)) with
        | _, A.Dmb A.Full -> S.Dmb_full :: go (at + 1)
        | _, (A.Mov _ | A.Exit_halt) -> go (at + 1)
        | `Cas, A.Cas { acq; rel; _ } | `Xadd, A.Ldadd { acq; rel; _ } | `Xchg, A.Swp { acq; rel; _ } ->
            S.Amo { acq; rel } :: go (at + 1)
        | `Cas, ((A.Ldxr _ | A.Ldaxr _) as ld) -> (
            match Array.sub code (at + 1) 4 with
            | [| A.Cmp _; A.Bcc _; ((A.Stxr _ | A.Stlxr _) as st); A.Cbnz _ |] ->
                excl at ld st ~len:5 :: go (at + 5)
            | _ -> Alcotest.fail "malformed cas loop")
        | (`Xadd | `Xchg), ((A.Ldxr _ | A.Ldaxr _) as ld) -> (
            match (op, Array.sub code (at + 1) 3) with
            | `Xadd, [| A.Alu (A.Add, _, _, _); ((A.Stxr _ | A.Stlxr _) as st); A.Cbnz _ |]
            | `Xchg, [| A.Mov _; ((A.Stxr _ | A.Stlxr _) as st); A.Cbnz _ |] ->
                excl at ld st ~len:4 :: go (at + 4)
            | _ -> Alcotest.fail "malformed exclusive loop")
        | _, i -> Alcotest.failf "unexpected host instruction %a" A.pp i
    in
    go 0
  in
  let litmus_steps (lop : Litmus.Ast.rmw_op) code =
    List.map
      (function
        | Litmus.Ast.Fence E.F_dmb_full -> S.Dmb_full
        | Litmus.Ast.Rmw { op; kind = Litmus.Ast.Rmw_arm { impl; acq; rel }; _ } when op = lop -> (
            match impl with Litmus.Ast.Amo -> S.Amo { acq; rel } | Litmus.Ast.Lxsx -> S.Exclusive { acq; rel })
        | i -> Alcotest.failf "unexpected litmus instruction %a" Litmus.Ast.pp_instr i)
      code
  in
  List.iter
    (fun rmw ->
      let config = { Core.Config.risotto with rmw } in
      List.iter
        (fun (op, lop) ->
          let expect = if op = `Cas then rdx else Op.no_temp in
          let block =
            Tcg.Block.make ~guest_pc:0x1000L ~guest_len:4 ~guest_insns:1
              [| Op.Rmw { op; old = rax; addr = rbx; expect; src = rcx }; Op.Exit_halt |]
          in
          let verified = litmus_steps lop (S.lower_rmw rmw ~reg:(Some "r") ~loc:"X" lop) in
          check_bool "table = lower_rmw" true (verified = S.rmw_sequence rmw op);
          check_bool
            (Litmus.Ast.rmw_name lop ^ ": backend = lower_rmw")
            true
            (host_steps op (Core.Backend.compile config block) = verified))
        Litmus.Ast.
          [
            (`Cas, Cas { expect = Int 0; desired = Int 1 });
            (`Xadd, Fetch_add (Int 1));
            (`Xchg, Exchange (Int 1));
          ])
    Mapping.Schemes.[ Risotto_rmw1; Risotto_rmw2 ]

(* Qemu's RMW helpers charge their lowering's table steps: the GCC 9
   helper an LDAXR/STLXR pass (two exclusives plus the acquire and
   release extras), the GCC 10 helper one CASAL. *)
let test_rmw_helper_cycles () =
  let module M = Arm.Machine in
  let shared = M.create_shared (Memsys.Mem.create ()) in
  Core.Helpers.register_all shared;
  let c = M.cost shared and t = M.create_thread 0 in
  let excl = (2 * c.Arm.Cost.excl) + (2 * c.Arm.Cost.acq_rel_extra) in
  List.iter
    (fun (name, args, expected) ->
      let before = t.M.cycles in
      ignore ((Option.get (M.find_helper shared name)) shared t args);
      check_int name expected (t.M.cycles - before))
    [
      ("helper_cmpxchg_gcc9", [ 0x5000L; 0L; 1L ], excl);
      ("helper_cmpxchg_gcc10", [ 0x5000L; 1L; 2L ], c.Arm.Cost.cas);
      ("helper_xadd_gcc9", [ 0x5000L; 1L ], excl);
      ("helper_xadd_gcc10", [ 0x5000L; 1L ], c.Arm.Cost.cas);
      ("helper_xchg_gcc9", [ 0x5000L; 1L ], excl);
      ("helper_xchg_gcc10", [ 0x5000L; 1L ], c.Arm.Cost.cas);
    ]

let test_backend_register_pressure_ok () =
  (* A long block with many temps must allocate within the pool. *)
  let many_loads =
    List.init 30 (fun k ->
        Ins (I.Load (R.of_index (k mod 8), { I.base = None; index = None; disp = Int64.of_int (0x5000 + (8 * k)) })))
  in
  let image = C.build ((Label "main" :: many_loads) @ [ Ins I.Hlt ]) in
  let eng = Core.Engine.create Core.Config.risotto image in
  let code = Core.Engine.lookup_block eng image.Image.Gelf.entry in
  check_bool "compiled" true (Array.length code > 0)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let test_block_cache () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 5L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let _, eng = C.run_config Core.Config.qemu (C.build items) in
  let st = Core.Engine.stats eng in
  check_bool "few translations" true (st.Core.Engine.blocks_translated <= 3);
  check_bool "cache hits on loop" true (st.Core.Engine.cache_hits >= 3)

(* [lookup_block] returns the native code an eager engine compiled at
   translation, and raises only when the backend refused the block. *)
let test_lookup_block_native_or_fault () =
  let image =
    C.build [ Label "main"; Ins (I.Mov_ri (R.RBX, 5L)); Ins I.Mfence; Ins I.Hlt ]
  in
  let entry = image.Image.Gelf.entry in
  let eng = Core.Engine.create Core.Config.risotto image in
  let code = Core.Engine.lookup_block eng entry in
  check_bool "native code" true (Array.length code > 0);
  check_int "no fallback" 0 (Core.Engine.stats eng).Core.Engine.interp_fallbacks;
  check_bool "fetch returns the same native code" true
    (match Core.Engine.fetch eng entry with
    | Core.Engine.Native c -> c == code
    | Core.Engine.Interp_only _ -> false);
  let degraded =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Core.Inject.Always Core.Inject.Compile ];
    }
  in
  let eng = Core.Engine.create degraded image in
  let raises_backend_fault () =
    match Core.Engine.lookup_block eng entry with
    | _ -> false
    | exception Core.Fault.Fault f -> f.Core.Fault.kind = Core.Fault.Backend_fault
  in
  check_bool "degraded block raises a backend fault" true (raises_backend_fault ());
  check_bool "and raises again" true (raises_backend_fault ());
  check_int "the fallback is counted once" 1
    (Core.Engine.stats eng).Core.Engine.interp_fallbacks

let test_exit_code_via_syscall () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RAX, 60L));
      Ins (I.Mov_ri (R.RDI, 17L));
      Ins I.Syscall;
      Ins I.Nop;
    ]
  in
  let g, _ = C.run_config Core.Config.risotto (C.build items) in
  check_i64 "exit code" 17L g.Core.Engine.arm.Arm.Machine.exit_code;
  check_bool "finished" true g.Core.Engine.finished

let test_write_syscall_output () =
  let items =
    [
      Label "main";
      Ins (I.Store ({ I.base = None; index = None; disp = 0xA000L }, I.I 0x6b6fL));
      (* "ok" *)
      Ins (I.Mov_ri (R.RAX, 1L));
      Ins (I.Mov_ri (R.RDI, 1L));
      Ins (I.Mov_ri (R.RSI, 0xA000L));
      Ins (I.Mov_ri (R.RDX, 2L));
      Ins I.Syscall;
      Ins I.Hlt;
    ]
  in
  let g, _ = C.run_config Core.Config.qemu (C.build items) in
  Alcotest.(check string) "output" "ok"
    (Buffer.contents g.Core.Engine.arm.Arm.Machine.output)

let test_concurrent_threads_sum () =
  (* 4 threads xadd a shared counter 50 times each. *)
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.R14, 0x7000L));
      Ins (I.Mov_ri (R.R15, 50L));
      Label "loop";
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd ({ I.base = Some R.R14; index = None; disp = 0L }, R.R8));
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  List.iter
    (fun config ->
      let image = C.build items in
      let eng = Core.Engine.create config image in
      let threads =
        List.init 4 (fun tid ->
            Core.Engine.spawn eng ~tid ~entry:image.Image.Gelf.entry ())
      in
      ignore (Core.Engine.run_concurrent eng threads);
      check_i64
        (config.Core.Config.name ^ ": counter")
        200L
        (Memsys.Mem.load (Core.Engine.memory eng) 0x7000L))
    Core.Config.all

(* ------------------------------------------------------------------ *)
(* Differential property tests vs the reference interpreter            *)

let differential config =
  QCheck.Test.make
    ~name:("dbt(" ^ config.Core.Config.name ^ ") matches x86 interpreter")
    ~count:250 C.arb_program
    (fun p ->
      let image = C.build (C.looped p) in
      oracle_state image = dbt_state config image)

let props = List.map (fun c -> QCheck_alcotest.to_alcotest (differential c)) Core.Config.all

(* Every example program, under every preset and every compile-fault
   plan (which keeps the guest's semantics), ends as the oracle does. *)
let test_examples_match_oracle () =
  let compile_only =
    List.for_all (function
      | Core.Inject.Nth (site, _) | Core.Inject.Always site | Core.Inject.Seeded { site; _ } ->
          site = Core.Inject.Compile)
  in
  List.iter
    (fun (pname, items) ->
      let image = C.build items in
      let oracle = oracle_state image in
      List.iter
        (fun (config : Core.Config.t) ->
          List.iter
            (fun plan ->
              let plan_name = Core.Inject.plan_to_string plan in
              check_bool
                (Printf.sprintf "%s/%s/[%s] matches" config.name pname plan_name)
                true
                (oracle = dbt_state { config with inject = plan } image))
            ([] :: List.filter compile_only C.plans))
        Core.Config.all)
    C.examples

(* A deeper hand-written program exercising calls, branches and the
   stack, compared across all configs. *)
let test_fib_program () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RDI, 12L));
      Call_lbl "fib";
      Ins (I.Store ({ I.base = None; index = None; disp = 0x5000L }, I.R R.RAX));
      Ins I.Hlt;
      (* iterative fib(rdi) -> rax *)
      Label "fib";
      Ins (I.Mov_ri (R.RAX, 0L));
      Ins (I.Mov_ri (R.RBX, 1L));
      Label "fib_loop";
      Ins (I.Cmp (R.RDI, I.I 0L));
      Jcc_lbl (I.E, "fib_done");
      Ins (I.Mov_rr (R.RCX, R.RAX));
      Ins (I.Alu (I.Add, R.RCX, I.R R.RBX));
      Ins (I.Mov_rr (R.RAX, R.RBX));
      Ins (I.Mov_rr (R.RBX, R.RCX));
      Ins (I.Alu (I.Sub, R.RDI, I.I 1L));
      Jmp_lbl "fib_loop";
      Label "fib_done";
      Ins I.Ret;
    ]
  in
  let image = C.build items in
  let oracle = oracle_state image in
  check_i64 "oracle fib(12)" 144L (fst oracle).(R.index R.RAX);
  List.iter
    (fun config ->
      check_bool (config.Core.Config.name ^ " matches") true (oracle = dbt_state config image))
    Core.Config.all

(* ------------------------------------------------------------------ *)
(* PLT interception                                                    *)

let linked_image func driver =
  Image.Gelf.build ~entry:"main" ~imports:[ Harness.Guest_libs.import func ] driver

let strlen_driver =
  [
    Label "main";
    (* "abcde" at 0xA000 (store immediates are 32-bit, like x86's
       mov [m], imm32: go through a register) *)
    Ins (I.Mov_ri (R.R11, 0x6564636261L));
    Ins (I.Store ({ I.base = None; index = None; disp = 0xA000L }, I.R R.R11));
    Ins (I.Mov_ri (R.RDI, 0xA000L));
    Call_lbl "strlen@plt";
    Ins I.Hlt;
  ]

let test_plt_interception_strlen () =
  let image = linked_image "strlen" strlen_driver in
  (* Without the linker: guest implementation is translated. *)
  let g_q, eng_q = C.run_config Core.Config.qemu image in
  check_i64 "guest strlen" 5L (Core.Engine.reg g_q R.RAX);
  let st_q = Core.Engine.stats eng_q in
  ignore st_q;
  (* With the linker: host function invoked. *)
  let g_r, _ = C.run_config Core.Config.risotto image in
  check_i64 "host strlen" 5L (Core.Engine.reg g_r R.RAX);
  check_int "one host call" 1 g_r.Core.Engine.arm.Arm.Machine.host_calls;
  check_int "no host call under qemu" 0 g_q.Core.Engine.arm.Arm.Machine.host_calls

let test_digest_agrees_across_linking () =
  (* The guest digest implementation is byte-exact with the host one. *)
  let driver =
    [
      Label "main";
      Ins (I.Mov_ri (R.R11, 0x1122334455667788L));
      Ins (I.Store ({ I.base = None; index = None; disp = 0xB000L }, I.R R.R11));
      Ins (I.Mov_ri (R.R11, 0x99aabbccddeeff00L));
      Ins (I.Store ({ I.base = None; index = None; disp = 0xB008L }, I.R R.R11));
      Ins (I.Mov_ri (R.RDI, 0xB000L));
      Ins (I.Mov_ri (R.RSI, 16L));
      Call_lbl "sha256@plt";
      Ins I.Hlt;
    ]
  in
  let image = linked_image "sha256" driver in
  let g_q, _ = C.run_config Core.Config.qemu image in
  let g_r, _ = C.run_config Core.Config.risotto image in
  check_i64 "sha256 guest = host"
    (Core.Engine.reg g_q R.RAX)
    (Core.Engine.reg g_r R.RAX);
  check_bool "digest nonzero" true (Core.Engine.reg g_r R.RAX <> 0L)

let test_unlinked_import_falls_back () =
  (* A function absent from the IDL is translated, even under risotto. *)
  let image = linked_image "strlen" strlen_driver in
  let eng = Core.Engine.create ~idl:[] Core.Config.risotto image in
  let g = Core.Engine.run eng in
  check_i64 "guest fallback" 5L (Core.Engine.reg g R.RAX);
  check_int "no host call" 0 g.Core.Engine.arm.Arm.Machine.host_calls;
  check_bool "unresolved recorded" true
    (Linker.Link.unresolved (Core.Engine.links eng) = [ "strlen" ])

let test_guest_clone () =
  (* The guest spawns 3 workers via the clone syscall; each adds its
     argument to an accumulator and signals a done-counter; the main
     thread spin-waits on the counter.  Exercises guest-initiated
     concurrency under every configuration. *)
  let acc = I.abs 0x7100L and done_ = I.abs 0x7108L in
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RSI, 10L));
      Call_lbl "spawn";
      Ins (I.Mov_ri (R.RSI, 20L));
      Call_lbl "spawn";
      Ins (I.Mov_ri (R.RSI, 30L));
      Call_lbl "spawn";
      Label "wait";
      Ins (I.Load (R.RBX, done_));
      Ins (I.Cmp (R.RBX, I.I 3L));
      Jcc_lbl (I.Ne, "wait");
      Ins (I.Load (R.R13, acc));
      Ins I.Hlt;
      (* spawn(rsi = worker argument): clone(worker, rsi) *)
      Label "spawn";
      Ins (I.Mov_ri (R.RAX, 56L));
      Mov_lbl (R.RDI, "worker");
      Ins I.Syscall;
      Ins I.Ret;
      (* worker(rdi = amount) *)
      Label "worker";
      Ins (I.Mov_rr (R.R8, R.RDI));
      Ins (I.Lock_xadd (acc, R.R8));
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Lock_xadd (done_, R.R8));
      Ins I.Hlt;
    ]
  in
  List.iter
    (fun config ->
      let image = C.build items in
      let eng = Core.Engine.create config image in
      let main = Core.Engine.spawn eng ~tid:0 ~entry:image.Image.Gelf.entry () in
      let all =
        Core.Engine.threads (Core.Engine.run_concurrent eng [ main ])
      in
      check_int (config.Core.Config.name ^ ": four threads ran") 4
        (List.length all);
      check_i64
        (config.Core.Config.name ^ ": accumulated")
        60L (Core.Engine.reg main R.R13))
    Core.Config.all

(* ------------------------------------------------------------------ *)
(* Persistent translation cache                                        *)

let test_persistent_cache () =
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 40L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let image = C.build items in
  let path = Filename.temp_file "risotto" ".tc" in
  (* First engine: translate and save. *)
  let eng1 = Core.Engine.create Core.Config.risotto image in
  let g1 = Core.Engine.run eng1 in
  let saved = Core.Engine.save_cache eng1 path in
  check_bool "blocks saved" true (saved >= 2);
  (* Second engine: load, run, and translate nothing. *)
  let eng2 = Core.Engine.create Core.Config.risotto image in
  let loaded =
    match Core.Engine.load_cache eng2 path with
    | Ok n -> n
    | Error f -> Alcotest.failf "cache load failed: %s" (Core.Fault.to_string f)
  in
  check_int "all blocks loaded" saved loaded;
  let g2 = Core.Engine.run eng2 in
  check_int "no retranslation" 0
    (Core.Engine.stats eng2).Core.Engine.blocks_translated;
  check_i64 "same result" (Core.Engine.reg g1 R.RBX) (Core.Engine.reg g2 R.RBX);
  check_int "same cycles" (Core.Engine.cycles g1) (Core.Engine.cycles g2);
  (* Wrong config is rejected (as a fault, not an exception). *)
  let eng3 = Core.Engine.create Core.Config.qemu image in
  check_bool "config mismatch rejected" true
    (match Core.Engine.load_cache eng3 path with
    | Error { Core.Fault.kind = Core.Fault.Cache_corrupt; _ } -> true
    | Ok _ | Error _ -> false);
  Sys.remove path

let () =
  Alcotest.run "core"
    [
      ( "frontend",
        [
          Alcotest.test_case "risotto fences (Fig 7a)" `Quick
            test_frontend_risotto_fences;
          Alcotest.test_case "qemu fences (Fig 2)" `Quick
            test_frontend_qemu_fences;
          Alcotest.test_case "no fences" `Quick test_frontend_no_fences;
          Alcotest.test_case "block cap" `Quick test_frontend_block_cap;
          Alcotest.test_case "mfence" `Quick test_frontend_mfence;
          Alcotest.test_case "fences follow the mapping table" `Quick
            test_frontend_follows_table;
        ] );
      ( "backend",
        [
          Alcotest.test_case "CAS lowering strategies" `Quick
            test_backend_cas_lowering;
          Alcotest.test_case "Atomic rejected under helper RMW" `Quick
            test_backend_rejects_helper_atomic;
          Alcotest.test_case "RMW host code = checked litmus code" `Quick
            test_backend_agrees_with_lower_rmw;
          Alcotest.test_case "RMW helpers charge their table steps" `Quick
            test_rmw_helper_cycles;
          Alcotest.test_case "register allocation" `Quick
            test_backend_register_pressure_ok;
        ] );
      ( "engine",
        [
          Alcotest.test_case "block cache" `Quick test_block_cache;
          Alcotest.test_case "lookup_block: native, or a degraded fault" `Quick
            test_lookup_block_native_or_fault;
          Alcotest.test_case "exit syscall" `Quick test_exit_code_via_syscall;
          Alcotest.test_case "write syscall" `Quick test_write_syscall_output;
          Alcotest.test_case "concurrent xadd sum" `Quick
            test_concurrent_threads_sum;
          Alcotest.test_case "guest clone syscall" `Quick test_guest_clone;
          Alcotest.test_case "fib across configs" `Quick test_fib_program;
          Alcotest.test_case "examples match the x86 interpreter" `Quick
            test_examples_match_oracle;
        ] );
      ("differential", props);
      ( "translation cache",
        [ Alcotest.test_case "save/load round trip" `Quick test_persistent_cache ] );
      ( "host linker",
        [
          Alcotest.test_case "PLT interception" `Quick
            test_plt_interception_strlen;
          Alcotest.test_case "digest agreement" `Quick
            test_digest_agrees_across_linking;
          Alcotest.test_case "fallback without IDL" `Quick
            test_unlinked_import_falls_back;
        ] );
    ]
