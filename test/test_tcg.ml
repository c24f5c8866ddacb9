(* The TCG IR: interpreter, and each optimizer pass — unit tests plus a
   differential property test (optimized blocks compute the same final
   state). *)

module Op = Tcg.Op
module E = Axiom.Event

let g0 = Op.guest_reg 0
let g1 = Op.guest_reg 1
let g2 = Op.guest_reg 2
let g3 = Op.guest_reg 3
let t0 = Op.first_local
let t1 = Op.first_local + 1

let block ops =
  Tcg.Block.make ~guest_pc:0x1000L ~guest_len:0 ~guest_insns:0 (Array.of_list ops)

(* A pass over an op list (the unit tests spell blocks as lists). *)
let on_list pass ops = Array.to_list (Tcg.Pipeline.run_pass pass (Array.of_list ops))

let exec ?helpers ops =
  let mem = Memsys.Mem.create () in
  let env = Tcg.Interp.create_env ?helpers mem in
  let exit = Tcg.Interp.exec_block env (block ops) in
  (env, exit, mem)

let check_i64 = Alcotest.check Alcotest.int64
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let test_interp_basics () =
  let env, exit, _ =
    exec
      [
        Op.Movi (g0, 6L);
        Op.Binopi (Op.Mul, g0, g0, 7L);
        Op.Setcond (Op.Eq, g1, g0, g0);
        Op.Goto_tb 0x2000L;
      ]
  in
  check_i64 "mul" 42L env.Tcg.Interp.temps.(g0);
  check_i64 "setcond" 1L env.Tcg.Interp.temps.(g1);
  check_bool "exit" true (exit = Tcg.Interp.Next_tb 0x2000L)

let test_interp_memory_and_branch () =
  let env, _, mem =
    exec
      [
        Op.Movi (t0, 0x5000L);
        Op.Movi (g0, 7L);
        Op.St (g0, t0, 8L);
        Op.Ld (g1, t0, 8L);
        Op.Brcond (Op.Eq, g1, g0, 1);
        Op.Movi (g2, 111L);
        Op.Set_label 1;
        Op.Movi (g3, 222L);
        Op.Exit_halt;
      ]
  in
  check_i64 "load back" 7L env.Tcg.Interp.temps.(g1);
  check_i64 "branch taken skips" 0L env.Tcg.Interp.temps.(g2);
  check_i64 "after label" 222L env.Tcg.Interp.temps.(g3);
  check_i64 "memory" 7L (Memsys.Mem.load mem 0x5008L)

let test_interp_cas_atomic () =
  let env, _, mem =
    exec
      [
        Op.Movi (t0, 0x5000L);
        Op.Movi (g0, 0L);
        Op.Movi (g1, 9L);
        Op.Rmw { op = `Cas; old = g2; addr = t0; expect = g0; src = g1 };
        Op.Rmw { op = `Xadd; old = g3; addr = t0; expect = Op.no_temp; src = g1 };
        Op.Exit_halt;
      ]
  in
  check_i64 "cas old" 0L env.Tcg.Interp.temps.(g2);
  check_i64 "xadd old" 9L env.Tcg.Interp.temps.(g3);
  check_i64 "memory" 18L (Memsys.Mem.load mem 0x5000L)

let test_interp_fallthrough_fails () =
  let _, exit, _ = exec [ Op.Movi (g0, 1L) ] in
  check_bool "fall-through trapped" true
    (exit
    = Tcg.Interp.Trapped ("translate", "Tcg.Interp: block 0x1000 fell through"))

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)

let test_constfold () =
  let ops =
    on_list Tcg.Pipeline.Const_fold
      [
        Op.Movi (t0, 6L);
        Op.Movi (t1, 7L);
        Op.Binop (Op.Mul, g0, t0, t1);
        Op.Goto_tb 0L;
      ]
  in
  check_bool "folded to movi 42" true (List.mem (Op.Movi (g0, 42L)) ops)

let test_constfold_false_dep () =
  (* X = a * 0 ↝ X = 0 (§6.1) *)
  let ops =
    on_list Tcg.Pipeline.Const_fold [ Op.Binopi (Op.Mul, g0, g1, 0L); Op.Goto_tb 0L ]
  in
  check_bool "mul by zero" true (List.mem (Op.Movi (g0, 0L)) ops);
  let ops = on_list Tcg.Pipeline.Const_fold [ Op.Binop (Op.Xor, g0, g1, g1); Op.Goto_tb 0L ] in
  check_bool "xor self" true (List.mem (Op.Movi (g0, 0L)) ops);
  let ops = on_list Tcg.Pipeline.Const_fold [ Op.Binopi (Op.Add, g0, g1, 0L); Op.Goto_tb 0L ] in
  check_bool "add zero is mov" true (List.mem (Op.Mov (g0, g1)) ops)

let test_constfold_branch () =
  let ops =
    on_list Tcg.Pipeline.Const_fold
      [
        Op.Movi (t0, 1L);
        Op.Movi (t1, 1L);
        Op.Brcond (Op.Eq, t0, t1, 5);
        Op.Goto_tb 0L;
      ]
  in
  check_bool "constant brcond becomes br" true (List.mem (Op.Br 5) ops)

let test_constfold_stops_at_label () =
  let ops =
    on_list Tcg.Pipeline.Const_fold
      [
        Op.Movi (t0, 1L);
        Op.Set_label 0;
        Op.Binopi (Op.Add, g0, t0, 1L);
        Op.Goto_tb 0L;
      ]
  in
  (* After a label the constant is unknown: the add must survive. *)
  check_bool "no fold across label" true
    (List.mem (Op.Binopi (Op.Add, g0, t0, 1L)) ops)

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)

let test_dce_unread_local () =
  let ops =
    on_list Tcg.Pipeline.Dce [ Op.Movi (t0, 5L); Op.Movi (g0, 1L); Op.Goto_tb 0L ]
  in
  check_int "dead local removed" 2 (List.length ops)

let test_dce_keeps_globals () =
  let ops = on_list Tcg.Pipeline.Dce [ Op.Movi (g0, 5L); Op.Goto_tb 0L ] in
  check_int "global write kept" 2 (List.length ops)

let test_dce_overwritten_global () =
  let ops =
    on_list Tcg.Pipeline.Dce [ Op.Movi (g0, 5L); Op.Movi (g0, 6L); Op.Goto_tb 0L ]
  in
  check_int "overwritten global removed" 2 (List.length ops);
  check_bool "second write survives" true (List.mem (Op.Movi (g0, 6L)) ops)

let test_dce_keeps_read_then_overwritten () =
  let ops =
    on_list Tcg.Pipeline.Dce
      [ Op.Movi (g0, 5L); Op.Mov (g1, g0); Op.Movi (g0, 6L); Op.Goto_tb 0L ]
  in
  check_int "all four kept" 4 (List.length ops)

let test_dce_keeps_stores () =
  let ops =
    on_list Tcg.Pipeline.Dce [ Op.Movi (t0, 0x5000L); Op.St (g0, t0, 0L); Op.Goto_tb 0L ]
  in
  check_int "store and its address kept" 3 (List.length ops)

(* ------------------------------------------------------------------ *)
(* Memory elimination (Figure 10 at IR level)                          *)

let has_load ops = List.exists (function Op.Ld _ -> true | _ -> false) ops
let count_stores ops =
  List.length (List.filter (function Op.St _ -> true | _ -> false) ops)

let test_memopt_raw () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.St (g0, g1, 0L); Op.Ld (g2, g1, 0L); Op.Goto_tb 0L ]
  in
  check_bool "load forwarded" false (has_load ops);
  check_bool "mov inserted" true (List.mem (Op.Mov (g2, g0)) ops)

let test_memopt_raw_across_allowed_fence () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.St (g0, g1, 0L); Op.mb E.F_ww; Op.Ld (g2, g1, 0L); Op.Goto_tb 0L ]
  in
  check_bool "F-RAW across Fww" false (has_load ops)

let test_memopt_raw_blocked_by_fmr () =
  (* The FMR pitfall: RAW must NOT be applied across an Fmr. *)
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.St (g0, g1, 0L); Op.mb E.F_mr; Op.Ld (g2, g1, 0L); Op.Goto_tb 0L ]
  in
  check_bool "load survives across Fmr" true (has_load ops)

let test_memopt_rar () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.Ld (g0, g1, 0L); Op.mb E.F_rm; Op.Ld (g2, g1, 0L); Op.Goto_tb 0L ]
  in
  check_int "one load left" 1
    (List.length (List.filter (function Op.Ld _ -> true | _ -> false) ops));
  check_bool "forwarded" true (List.mem (Op.Mov (g2, g0)) ops)

let test_memopt_waw () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.St (g0, g1, 0L); Op.St (g2, g1, 0L); Op.Goto_tb 0L ]
  in
  check_int "first store removed" 1 (count_stores ops)

let test_memopt_waw_blocked_by_real_load () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [
        Op.St (g0, g1, 0L);
        Op.mb E.F_mr;
        (* blocks forwarding *)
        Op.Ld (g2, g1, 0L);
        Op.St (g3, g1, 0L);
        Op.Goto_tb 0L;
      ]
  in
  check_int "both stores kept (read pins the first)" 2 (count_stores ops)

let test_memopt_different_offsets_no_alias () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [ Op.St (g0, g1, 0L); Op.St (g2, g1, 8L); Op.Ld (g3, g1, 0L); Op.Goto_tb 0L ]
  in
  check_bool "forwarding across non-aliasing store" false (has_load ops)

let test_memopt_clobbered_base () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [
        Op.St (g0, g1, 0L);
        Op.Binopi (Op.Add, g1, g1, 8L);
        (* base changed: key stale *)
        Op.Ld (g2, g1, 0L);
        Op.Goto_tb 0L;
      ]
  in
  check_bool "no forwarding after base change" true (has_load ops)

let test_memopt_call_clears () =
  let ops =
    on_list Tcg.Pipeline.Mem_elim
      [
        Op.St (g0, g1, 0L);
        Op.Call ("helper", [], None);
        Op.Ld (g2, g1, 0L);
        Op.Goto_tb 0L;
      ]
  in
  check_bool "helper call clears tracking" true (has_load ops)

(* ------------------------------------------------------------------ *)
(* Fence merging                                                       *)

let count_fences ops = Tcg.Fenceopt.count (Array.of_list ops)

let test_fence_merge_adjacent () =
  (* Frm; Fww from the x86→IR mapping merge (§6.1 example). *)
  let ops =
    on_list Tcg.Pipeline.Fence_merge
      [ Op.mb E.F_rm; Op.mb E.F_ww; Op.St (g0, g1, 0L); Op.Goto_tb 0L ]
  in
  check_int "merged to one" 1 (count_fences ops)

let test_fence_merge_across_pure_ops () =
  let ops =
    on_list Tcg.Pipeline.Fence_merge
      [ Op.mb E.F_rm; Op.Movi (t0, 1L); Op.mb E.F_ww; Op.Goto_tb 0L ]
  in
  check_int "pure ops transparent" 1 (count_fences ops)

let test_fence_merge_blocked_by_memory () =
  let ops =
    on_list Tcg.Pipeline.Fence_merge
      [ Op.mb E.F_rm; Op.Ld (g0, g1, 0L); Op.mb E.F_ww; Op.Goto_tb 0L ]
  in
  check_int "memory access blocks merging" 2 (count_fences ops)

let test_fence_drop_acq_rel () =
  let ops = on_list Tcg.Pipeline.Fence_merge [ Op.mb E.F_acq; Op.Goto_tb 0L ] in
  check_int "Facq dropped" 0 (count_fences ops)

(* ------------------------------------------------------------------ *)
(* Differential property: the full pipeline preserves semantics.       *)

let arb_ops =
  let open QCheck in
  let temp = oneofl [ g0; g1; g2; g3; t0; t1 ] in
  let binop = oneofl [ Op.Add; Op.Sub; Op.And; Op.Or; Op.Xor; Op.Mul ] in
  let fencek = oneofl [ E.F_rm; E.F_ww; E.F_sc; E.F_mr; E.F_rr ] in
  (* addresses: base temp always holds 0x6000 (set in a prologue) *)
  let off = map (fun k -> Int64.of_int (8 * k)) (int_range 0 3) in
  let op =
    oneof
      [
        map (fun (d, i) -> Op.Movi (d, Int64.of_int i)) (pair temp small_int);
        map (fun (d, s) -> Op.Mov (d, s)) (pair temp temp);
        map (fun (o, d, a, b) -> Op.Binop (o, d, a, b)) (quad binop temp temp temp);
        map
          (fun (o, d, a, i) -> Op.Binopi (o, d, a, Int64.of_int i))
          (quad binop temp temp (int_range (-8) 8));
        map (fun (d, o) -> Op.Ld (d, t1, o)) (pair (oneofl [ g0; g1; g2; g3; t0 ]) off);
        map (fun (s, o) -> Op.St (s, t1, o)) (pair (oneofl [ g0; g1; g2; g3; t0 ]) off);
        map (fun f -> Op.mb f) fencek;
        map (fun (c, d, a, b) -> Op.Setcond (c, d, a, b))
          (quad (oneofl [ Op.Eq; Op.Ne; Op.Lt; Op.Gtu ]) temp temp temp);
      ]
  in
  small_list op

let final_state ops =
  (* Prologue pins t1 (the base pointer) and seeds the globals. *)
  let prologue =
    [
      Op.Movi (t1, 0x6000L);
      Op.Movi (g0, 3L);
      Op.Movi (g1, 5L);
      Op.Movi (g2, 7L);
      Op.Movi (g3, 11L);
    ]
  in
  let full = prologue @ ops @ [ Op.Goto_tb 0L ] in
  let env, _, mem = exec full in
  ( Array.to_list (Array.sub env.Tcg.Interp.temps 0 Op.nb_globals),
    Memsys.Mem.dump mem,
    full )

let prop_pipeline_preserves_semantics =
  QCheck.Test.make ~name:"optimizer pipeline preserves block semantics"
    ~count:500 arb_ops (fun ops ->
      let globals, mem, full = final_state ops in
      let optimized =
        Array.to_list (Tcg.Pipeline.run Tcg.Pipeline.risotto_default (block full)).Tcg.Block.ops
      in
      let env', _, mem' = exec optimized in
      let globals' =
        Array.to_list (Array.sub env'.Tcg.Interp.temps 0 Op.nb_globals)
      in
      globals = globals' && mem = Memsys.Mem.dump mem')

let prop_fence_merge_never_increases =
  QCheck.Test.make ~name:"fence merging never increases fence count"
    ~count:300 arb_ops (fun ops ->
      let full = ops @ [ Op.Goto_tb 0L ] in
      let full = Array.of_list full in
      Tcg.Fenceopt.count (Tcg.Pipeline.run_pass Tcg.Pipeline.Fence_merge full) <= Tcg.Fenceopt.count full)

(* ------------------------------------------------------------------ *)
(* Differential against the list-based reference passes              *)

(* Every pass, fed the reference's output of the pass before it, agrees
   with the reference on ops and ledger entries; and so does the whole
   pipeline. *)
let agrees_with_reference passes (b : Tcg.Block.t) =
  let entries = Tcg.Fence_ledger.entries in
  let step ops p =
    let l = Tcg.Fence_ledger.create () and l' = Tcg.Fence_ledger.create () in
    let out = Array.to_list (Tcg.Pipeline.run_pass ~ledger:l p (Array.of_list ops)) in
    let out' = Tcg_reference.run_pass ~ledger:l' p ops in
    if out <> out' || entries l <> entries l' then
      QCheck.Test.fail_reportf "%s differs on@.%a" (Tcg.Pipeline.pass_name p)
        Tcg.Block.pp (block ops);
    out'
  in
  ignore (List.fold_left step (Array.to_list b.ops) (passes @ Tcg.Pipeline.all));
  let l = Tcg.Fence_ledger.create () and l' = Tcg.Fence_ledger.create () in
  let out = Array.to_list (Tcg.Pipeline.run ~ledger:l passes b).Tcg.Block.ops in
  out = Tcg_reference.run ~ledger:l' passes (Array.to_list b.ops)
  && entries l = entries l'

(* Frontend output for straight-line guests drawn from the cold-code
   instruction shapes: load, store, the four ALU forms, fmul/fadd,
   mov + lock xadd, mfence. *)
let arb_guest =
  let module I = X86.Insn in
  let module R = X86.Reg in
  let shape =
    QCheck.Gen.(
      map2
        (fun k slot ->
          let slot = Int64.of_int (8 * slot) in
          match k with
          | 0 -> [ I.Load (R.RAX, I.based R.RBX slot) ]
          | 1 -> [ I.Store (I.based R.RBX (Int64.add 128L slot), I.R R.RAX) ]
          | 2 -> [ I.Alu (I.Add, R.RCX, I.I 3L) ]
          | 3 -> [ I.Alu (I.Xor, R.RDX, I.R R.RCX) ]
          | 4 -> [ I.Alu (I.Shl, R.RCX, I.I 1L) ]
          | 5 -> [ I.Alu (I.Sub, R.RDX, I.I 1L) ]
          | 6 -> [ I.Fp (I.Fmul, R.RSI, R.RSI) ]
          | 7 -> [ I.Fp (I.Fadd, R.RSI, R.RSI) ]
          | 8 -> [ I.Mov_ri (R.R8, 1L); I.Lock_xadd (I.based R.R14 0L, R.R8) ]
          | _ -> [ I.Mfence ])
        (int_range 0 9) (int_range 0 15))
  in
  QCheck.make
    ~print:(fun insns -> String.concat "; " (List.map (Fmt.to_to_string X86.Insn.pp) insns))
    QCheck.Gen.(map List.concat (list_size (int_range 1 80) shape))

(* Every block of the guest, as each preset's frontend translates it. *)
let guest_blocks (config : Core.Config.t) insns =
  let open X86.Asm in
  let image =
    Image.Gelf.build ~entry:"main"
      ((Label "main" :: List.map (fun i -> Ins i) insns) @ [ Ins X86.Insn.Hlt ])
  in
  let fe = Core.Frontend.create config image (Linker.Link.resolve image []) in
  let rec go pc acc =
    let b = Core.Frontend.translate fe pc in
    let acc = b :: acc in
    match b.Tcg.Block.ops.(Array.length b.Tcg.Block.ops - 1) with
    | Op.Goto_tb next when b.Tcg.Block.guest_len > 0 -> go next acc
    | _ -> List.rev acc
  in
  go image.Image.Gelf.entry []

let prop_frontend_blocks_match_reference =
  QCheck.Test.make ~name:"array passes = list reference on frontend blocks"
    ~count:200 arb_guest (fun insns ->
      List.for_all
        (fun (c : Core.Config.t) ->
          List.for_all (agrees_with_reference c.passes) (guest_blocks c insns))
        Core.Config.all)

(* Synthetic blocks: labels, branches, calls, atomics, every TCG fence
   kind (acq/rel included) and exits anywhere. *)
let arb_block =
  let open QCheck.Gen in
  let temp = oneofl [ g0; g1; g2; g3; Op.cmp_a; t0; t1; Op.first_local + 2 ] in
  let label = int_range 0 3 in
  let off = map (fun k -> Int64.of_int (8 * k)) (int_range 0 2) in
  let imm = map Int64.of_int (int_range (-2) 2) in
  let binop = oneofl [ Op.Add; Op.Sub; Op.And; Op.Or; Op.Xor; Op.Shl; Op.Shr; Op.Mul ] in
  let cond = oneofl [ Op.Eq; Op.Ne; Op.Lt; Op.Geu ] in
  let fence =
    oneofl
      E.[ F_rr; F_rw; F_rm; F_wr; F_ww; F_wm; F_mr; F_mw; F_mm; F_acq; F_rel; F_sc ]
  in
  let origin = map (fun pc -> { Op.opc = Int64.of_int pc; rule = "pre-load" }) (int_range 0 3) in
  let op =
    frequency
      [
        (3, map2 (fun d i -> Op.Movi (d, i)) temp imm);
        (2, map2 (fun d s -> Op.Mov (d, s)) temp temp);
        (2, map (fun (o, d, a, b) -> Op.Binop (o, d, a, b)) (quad binop temp temp temp));
        (2, map (fun (o, d, a, i) -> Op.Binopi (o, d, a, i)) (quad binop temp temp imm));
        (3, map3 (fun d b o -> Op.Ld (d, b, o)) temp temp off);
        (3, map3 (fun s b o -> Op.St (s, b, o)) temp temp off);
        (4, map2 (fun f origin -> Op.mb ~origin f) fence origin);
        (1, map (fun (c, d, a, b) -> Op.Setcond (c, d, a, b)) (quad cond temp temp temp));
        (1, map (fun (c, a, b, l) -> Op.Brcond (c, a, b, l)) (quad cond temp temp label));
        (1, map (fun l -> Op.Set_label l) label);
        (1, map (fun l -> Op.Br l) label);
        (1, map (fun (o, d, a, e) -> Op.Rmw { op = `Cas; old = d; addr = a; expect = e; src = o })
              (quad temp temp temp temp));
        (1, map3 (fun d a s -> Op.Rmw { op = `Xadd; old = d; addr = a; expect = Op.no_temp; src = s })
              temp temp temp);
        (1, map2 (fun args r -> Op.Call ("helper", args, r)) (list_size (int_range 0 2) temp) (opt temp));
        (1, map2 (fun args r -> Op.Host_call { func = "f"; args; ret = r })
              (list_size (int_range 0 2) temp) (opt temp));
        (1, oneofl [ Op.Goto_tb 0x2000L; Op.Exit_halt; Op.Trap ("t", "c") ]);
        (1, map (fun t -> Op.Goto_ptr t) temp);
      ]
  in
  QCheck.make
    ~print:(fun ops -> Fmt.to_to_string Tcg.Block.pp (block ops))
    (map (fun ops -> ops @ [ Op.Goto_tb 0L ]) (list_size (int_range 0 40) op))

let prop_synthetic_blocks_match_reference =
  QCheck.Test.make ~name:"array passes = list reference on synthetic blocks"
    ~count:1000 arb_block (fun ops ->
      agrees_with_reference Tcg.Pipeline.all (block ops)
      && agrees_with_reference Tcg.Pipeline.qemu_default (block ops))

let prop_input_unchanged =
  QCheck.Test.make ~name:"run_pass and Pipeline.run leave their input unchanged"
    ~count:300 arb_block (fun ops ->
      let b = block ops in
      let saved = Array.copy b.Tcg.Block.ops and labels = Array.copy b.Tcg.Block.labels in
      List.iter (fun p -> ignore (Tcg.Pipeline.run_pass p b.Tcg.Block.ops)) Tcg.Pipeline.all;
      ignore (Tcg.Pipeline.run ~ledger:(Tcg.Fence_ledger.create ()) Tcg.Pipeline.all b);
      ignore (Tcg.Pipeline.run Tcg.Pipeline.all b);
      Array.for_all2 ( == ) saved b.Tcg.Block.ops && labels = b.Tcg.Block.labels)

let () =
  Alcotest.run "tcg"
    [
      ( "interpreter",
        [
          Alcotest.test_case "basics" `Quick test_interp_basics;
          Alcotest.test_case "memory and branches" `Quick
            test_interp_memory_and_branch;
          Alcotest.test_case "cas/atomic" `Quick test_interp_cas_atomic;
          Alcotest.test_case "fall-through" `Quick test_interp_fallthrough_fails;
        ] );
      ( "const-fold",
        [
          Alcotest.test_case "folding" `Quick test_constfold;
          Alcotest.test_case "false dependencies" `Quick test_constfold_false_dep;
          Alcotest.test_case "constant branch" `Quick test_constfold_branch;
          Alcotest.test_case "label barrier" `Quick test_constfold_stops_at_label;
        ] );
      ( "dce",
        [
          Alcotest.test_case "unread local" `Quick test_dce_unread_local;
          Alcotest.test_case "globals kept" `Quick test_dce_keeps_globals;
          Alcotest.test_case "overwritten global" `Quick test_dce_overwritten_global;
          Alcotest.test_case "read then overwritten" `Quick
            test_dce_keeps_read_then_overwritten;
          Alcotest.test_case "stores kept" `Quick test_dce_keeps_stores;
        ] );
      ( "mem-elim",
        [
          Alcotest.test_case "RAW" `Quick test_memopt_raw;
          Alcotest.test_case "F-RAW across Fww" `Quick
            test_memopt_raw_across_allowed_fence;
          Alcotest.test_case "RAW blocked by Fmr" `Quick
            test_memopt_raw_blocked_by_fmr;
          Alcotest.test_case "RAR" `Quick test_memopt_rar;
          Alcotest.test_case "WAW" `Quick test_memopt_waw;
          Alcotest.test_case "WAW blocked by load" `Quick
            test_memopt_waw_blocked_by_real_load;
          Alcotest.test_case "offset disambiguation" `Quick
            test_memopt_different_offsets_no_alias;
          Alcotest.test_case "base clobber" `Quick test_memopt_clobbered_base;
          Alcotest.test_case "call clears" `Quick test_memopt_call_clears;
        ] );
      ( "fence-merge",
        [
          Alcotest.test_case "adjacent" `Quick test_fence_merge_adjacent;
          Alcotest.test_case "across pure ops" `Quick
            test_fence_merge_across_pure_ops;
          Alcotest.test_case "blocked by memory" `Quick
            test_fence_merge_blocked_by_memory;
          Alcotest.test_case "drops acq/rel" `Quick test_fence_drop_acq_rel;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_pipeline_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_fence_merge_never_increases;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_frontend_blocks_match_reference;
          QCheck_alcotest.to_alcotest prop_synthetic_blocks_match_reference;
          QCheck_alcotest.to_alcotest prop_input_unchanged;
        ] );
    ]
