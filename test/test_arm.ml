(* The Arm host machine: semantics, the cycle cost model, the exclusive
   monitor and the CAS contention model. *)

module A = Arm.Insn
module M = Arm.Machine

let check_i64 = Alcotest.check Alcotest.int64
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let exec ?cost ?(setup = fun _ -> ()) code =
  let mem = Memsys.Mem.create () in
  let shared = M.create_shared ?cost mem in
  let t = M.create_thread 0 in
  setup t;
  let exit = M.exec_block shared t (Array.of_list code) in
  (t, exit, mem, shared)

let test_alu_and_moves () =
  let t, exit, _, _ =
    exec
      [
        A.Movz (0, 6L);
        A.Alu (A.Mul, 1, 0, A.I 7L);
        A.Alu (A.Eor, 2, 1, A.R 1);
        A.Mov (3, 1);
        A.Goto_tb 0x99L;
      ]
  in
  check_i64 "mul" 42L t.M.regs.(1);
  check_i64 "eor self" 0L t.M.regs.(2);
  check_i64 "mov" 42L t.M.regs.(3);
  check_bool "exit" true (exit = M.Next_tb 0x99L)

let test_xzr () =
  let t, _, _, _ =
    exec [ A.Movz (31, 7L); A.Alu (A.Add, 0, 31, A.I 1L); A.Exit_halt ]
  in
  check_i64 "xzr reads zero" 1L t.M.regs.(0)

let test_memory_and_branches () =
  let t, _, mem, _ =
    exec
      [
        A.Movz (0, 0x5000L);
        A.Movz (1, 9L);
        A.Str (1, 0, 8L);
        A.Ldr (2, 0, 8L);
        A.Cmp (2, A.I 9L);
        A.Bcc (A.Eq, 7);
        A.Movz (3, 111L);
        A.Movz (4, 222L);
        A.Exit_halt;
      ]
  in
  check_i64 "ldr" 9L t.M.regs.(2);
  check_i64 "branch taken" 0L t.M.regs.(3);
  check_i64 "after target" 222L t.M.regs.(4);
  check_i64 "memory" 9L (Memsys.Mem.load mem 0x5008L)

let test_cset () =
  let t, _, _, _ =
    exec
      [
        A.Movz (0, 3L);
        A.Cmp (0, A.I 3L);
        A.Cset (1, A.Eq);
        A.Cset (2, A.Ne);
        A.Exit_halt;
      ]
  in
  check_i64 "cset eq" 1L t.M.regs.(1);
  check_i64 "cset ne" 0L t.M.regs.(2)

let test_exclusives () =
  let t, _, mem, _ =
    exec
      [
        A.Movz (0, 0x5000L);
        A.Movz (1, 5L);
        A.Str (1, 0, 0L);
        A.Ldxr (2, 0);
        A.Alu (A.Add, 3, 2, A.I 1L);
        A.Stxr (4, 3, 0);
        A.Exit_halt;
      ]
  in
  check_i64 "ldxr" 5L t.M.regs.(2);
  check_i64 "stxr success" 0L t.M.regs.(4);
  check_i64 "stored" 6L (Memsys.Mem.load mem 0x5000L)

let test_stxr_without_monitor_fails () =
  let t, _, mem, _ =
    exec
      [
        A.Movz (0, 0x5000L);
        A.Movz (1, 7L);
        A.Stxr (2, 1, 0);
        A.Exit_halt;
      ]
  in
  check_i64 "status 1" 1L t.M.regs.(2);
  check_i64 "no store" 0L (Memsys.Mem.load mem 0x5000L)

let test_cas_semantics () =
  let t, _, mem, _ =
    exec
      [
        A.Movz (0, 0x5000L);
        A.Movz (1, 0L);
        (* expected *)
        A.Movz (2, 9L);
        (* new *)
        A.Cas { acq = true; rel = true; cmp = 1; swap = 2; base = 0 };
        (* second cas fails: memory is 9, expected 0 *)
        A.Movz (3, 0L);
        A.Movz (4, 55L);
        A.Cas { acq = true; rel = true; cmp = 3; swap = 4; base = 0 };
        A.Exit_halt;
      ]
  in
  check_i64 "first cas old" 0L t.M.regs.(1);
  check_i64 "second cas old (failed)" 9L t.M.regs.(3);
  check_i64 "memory" 9L (Memsys.Mem.load mem 0x5000L)

let test_lse_atomics () =
  let t, _, mem, _ =
    exec
      [
        A.Movz (0, 0x5000L);
        A.Movz (1, 5L);
        A.Ldadd { acq = true; rel = true; old = 2; src = 1; base = 0 };
        A.Movz (3, 100L);
        A.Swp { acq = true; rel = true; old = 4; src = 3; base = 0 };
        A.Exit_halt;
      ]
  in
  check_i64 "ldadd old" 0L t.M.regs.(2);
  check_i64 "swp old" 5L t.M.regs.(4);
  check_i64 "memory" 100L (Memsys.Mem.load mem 0x5000L)

let test_fp () =
  let t, _, _, _ =
    exec
      [
        A.Movz (0, Int64.bits_of_float 16.0);
        A.Fp (A.Fsqrt, 1, 0, 0);
        A.Movz (2, Int64.bits_of_float 0.5);
        A.Fp (A.Fadd, 3, 1, 2);
        A.Exit_halt;
      ]
  in
  Alcotest.(check (float 1e-9)) "sqrt+add" 4.5 (Int64.float_of_bits t.M.regs.(3))

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let cycles code =
  let t, _, _, _ = exec code in
  t.M.cycles

let test_fence_costs () =
  let c = Arm.Cost.default in
  check_int "full fence" c.Arm.Cost.dmb_full (cycles [ A.Dmb A.Full; A.Exit_halt ]);
  check_int "ld fence" c.Arm.Cost.dmb_ld (cycles [ A.Dmb A.Ld; A.Exit_halt ]);
  check_int "st fence" c.Arm.Cost.dmb_st (cycles [ A.Dmb A.St; A.Exit_halt ]);
  (* Back-to-back fences: the second is nearly free — this is what makes
     merging profitable (and the DESIGN.md ablation point). *)
  check_int "chained discount"
    (c.Arm.Cost.dmb_ld + c.Arm.Cost.dmb_chained)
    (cycles [ A.Dmb A.Ld; A.Dmb A.Full; A.Exit_halt ])

let test_fence_ordering_of_costs () =
  let c = Arm.Cost.default in
  check_bool "full > ld" true (c.Arm.Cost.dmb_full > c.Arm.Cost.dmb_ld);
  check_bool "ld > st" true (c.Arm.Cost.dmb_ld > c.Arm.Cost.dmb_st);
  check_bool "chained cheapest" true (c.Arm.Cost.dmb_chained < c.Arm.Cost.dmb_st)

let test_stats_counters () =
  let t, _, _, _ =
    exec [ A.Dmb A.Full; A.Dmb A.St; A.Movz (0, 1L); A.Exit_halt ]
  in
  check_int "fences counted" 2 t.M.fences;
  check_int "insns counted" 4 t.M.insns

(* ------------------------------------------------------------------ *)
(* Contention                                                          *)

let test_contention_transfer () =
  let mem = Memsys.Mem.create () in
  let shared = M.create_shared mem in
  let t0 = M.create_thread 0 and t1 = M.create_thread 1 in
  let cas_block tid_reg =
    ignore tid_reg;
    [|
      A.Movz (0, 0x7000L);
      A.Movz (1, 0L);
      A.Movz (2, 1L);
      A.Cas { acq = true; rel = true; cmp = 1; swap = 2; base = 0 };
      A.Exit_halt;
    |]
  in
  ignore (M.exec_block shared t0 (cas_block 0));
  let c0_first = t0.M.cycles in
  ignore (M.exec_block shared t1 (cas_block 1));
  let c1 = t1.M.cycles in
  check_bool "second thread pays a transfer" true (c1 > c0_first);
  (* Same thread again: no transfer. *)
  let before = t1.M.cycles in
  ignore (M.exec_block shared t1 (cas_block 1));
  let delta = t1.M.cycles - before in
  check_bool "owner pays no transfer" true (delta < c1)

let test_sharers_scaling () =
  let mem = Memsys.Mem.create () in
  check_int "no sharers initially" 0 (Memsys.Mem.sharers mem 0x7000L);
  ignore (Memsys.Mem.acquire_line mem 0x7000L ~tid:0);
  ignore (Memsys.Mem.acquire_line mem 0x7000L ~tid:1);
  ignore (Memsys.Mem.acquire_line mem 0x7000L ~tid:2);
  check_int "three sharers" 3 (Memsys.Mem.sharers mem 0x7000L);
  ignore (Memsys.Mem.acquire_line mem 0x7000L ~tid:1);
  check_int "no double count" 3 (Memsys.Mem.sharers mem 0x7000L);
  check_bool "different line independent" true
    (Memsys.Mem.sharers mem 0x9000L = 0)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let test_helper_dispatch () =
  let mem = Memsys.Mem.create () in
  let shared = M.create_shared mem in
  M.register_helper shared "add3" (fun _ t args ->
      M.charge t 10;
      Int64.add (List.hd args) 3L);
  let t = M.create_thread 0 in
  let exit =
    M.exec_block shared t
      [|
        A.Movz (0, 7L); A.Blr_helper ("add3", [ 0 ], Some 1); A.Exit_halt;
      |]
  in
  check_bool "halted" true (exit = M.Halted);
  check_i64 "helper result" 10L t.M.regs.(1);
  check_int "helper counted" 1 t.M.helper_calls;
  check_bool "helper + extra cycles charged" true
    (t.M.cycles >= (M.cost shared).Arm.Cost.helper_call + 10)

let test_unknown_helper_fails () =
  let _, exit, _, _ = exec [ A.Blr_helper ("nope", [], None); A.Exit_halt ] in
  check_bool "unknown helper traps" true
    (exit = M.Trapped (M.Unknown_helper "nope"))

let test_helper_reregistered () =
  let mem = Memsys.Mem.create () in
  let shared = M.create_shared mem in
  M.register_helper shared "h" (fun _ _ _ -> 1L);
  let t = M.create_thread 0 in
  let code = [| A.Blr_helper ("h", [], Some 0); A.Exit_halt |] in
  ignore (M.exec_block shared t code);
  check_i64 "first helper" 1L t.M.regs.(0);
  (* The first run resolved "h"; replacing it must not leave the old
     helper behind that resolution. *)
  M.register_helper shared "h" (fun _ _ _ -> 2L);
  ignore (M.exec_block shared t code);
  check_i64 "replacement runs on the next block" 2L t.M.regs.(0)

let test_unknown_host_traps_at_execution () =
  let host = A.Host_call { func = "nope"; args = [ 0 ]; ret = Some 1 } in
  (* Never reached: the block runs normally. *)
  let t, exit, _, _ = exec [ A.B 2; host; A.Movz (2, 5L); A.Exit_halt ] in
  check_bool "unreached call is harmless" true (exit = M.Halted);
  check_i64 "block ran on" 5L t.M.regs.(2);
  let t, exit, _, _ = exec [ A.Movz (2, 5L); host; A.Movz (2, 6L); A.Exit_halt ] in
  check_bool "executed call traps" true (exit = M.Trapped (M.Unknown_host "nope"));
  check_i64 "instructions before the call ran" 5L t.M.regs.(2);
  check_int "host call counted" 1 t.M.host_calls

(* ------------------------------------------------------------------ *)
(* Block exits                                                         *)

let test_runaway_self_loop () =
  let t, exit, _, _ = exec [ A.B 0 ] in
  check_bool "runaway" true (exit = M.Trapped M.Runaway);
  check_int "insns executed before the trap" 9_999_999 t.M.insns

let test_fell_through () =
  let t, exit, _, _ = exec [ A.Movz (0, 1L); A.Movz (1, 2L) ] in
  check_bool "fell through past the end" true (exit = M.Trapped (M.Fell_through 2));
  check_i64 "body ran" 2L t.M.regs.(1);
  let _, exit, _, _ = exec [ A.Cbz (31, 3); A.Exit_halt ] in
  check_bool "branch past the end" true (exit = M.Trapped (M.Fell_through 3))

(* ------------------------------------------------------------------ *)
(* Code-buffer serialization                                           *)

let arb_insn =
  let open QCheck in
  let reg = int_range 0 31 in
  let operand =
    oneof
      [ map (fun r -> A.R r) reg; map (fun i -> A.I (Int64.of_int i)) int ]
  in
  let alu = oneofl [ A.Add; A.Sub; A.And; A.Orr; A.Eor; A.Lsl; A.Lsr; A.Mul ] in
  let cc = oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge; A.Lo; A.Ls; A.Hi; A.Hs ] in
  let fp = oneofl [ A.Fadd; A.Fsub; A.Fmul; A.Fdiv; A.Fsqrt ] in
  let target = int_range 0 1000 in
  let name = oneofl [ "helper_syscall"; "sf_add"; "sin"; "sha256" ] in
  oneof
    [
      map (fun (r, i) -> A.Movz (r, Int64.of_int i)) (pair reg int);
      map (fun (a, b) -> A.Mov (a, b)) (pair reg reg);
      map (fun (op, d, a, o) -> A.Alu (op, d, a, o)) (quad alu reg reg operand);
      map (fun (d, b, o) -> A.Ldr (d, b, Int64.of_int o)) (triple reg reg small_int);
      map (fun (s, b, o) -> A.Str (s, b, Int64.of_int o)) (triple reg reg small_int);
      map (fun (d, b) -> A.Ldar (d, b)) (pair reg reg);
      map (fun (d, b) -> A.Ldapr (d, b)) (pair reg reg);
      map (fun (s, b) -> A.Stlr (s, b)) (pair reg reg);
      map (fun (d, b) -> A.Ldxr (d, b)) (pair reg reg);
      map (fun (st, (s, b)) -> A.Stxr (st, s, b)) (pair reg (pair reg reg));
      map
        (fun ((acq, rel), (c, s, b)) -> A.Cas { acq; rel; cmp = c; swap = s; base = b })
        (pair (pair bool bool) (triple reg reg reg));
      map
        (fun ((acq, rel), (o, s, b)) -> A.Ldadd { acq; rel; old = o; src = s; base = b })
        (pair (pair bool bool) (triple reg reg reg));
      map
        (fun ((acq, rel), (o, s, b)) -> A.Swp { acq; rel; old = o; src = s; base = b })
        (pair (pair bool bool) (triple reg reg reg));
      map (fun b -> A.Dmb b) (oneofl [ A.Full; A.Ld; A.St ]);
      map (fun (r, o) -> A.Cmp (r, o)) (pair reg operand);
      map (fun t -> A.B t) target;
      map (fun (c, t) -> A.Bcc (c, t)) (pair cc target);
      map (fun (r, t) -> A.Cbz (r, t)) (pair reg target);
      map (fun (r, t) -> A.Cbnz (r, t)) (pair reg target);
      map (fun (r, c) -> A.Cset (r, c)) (pair reg cc);
      map (fun (op, d, a, b) -> A.Fp (op, d, a, b)) (quad fp reg reg reg);
      map
        (fun (n, args, ret) -> A.Blr_helper (n, args, ret))
        (triple name (small_list reg) (option reg));
      map
        (fun (n, args, ret) -> A.Host_call { func = n; args; ret })
        (triple name (small_list reg) (option reg));
      map (fun pc -> A.Goto_tb (Int64.of_int pc)) target;
      map (fun r -> A.Goto_ptr r) reg;
      always A.Exit_halt;
      map
        (fun (kind, context) -> A.Trap { kind; context })
        (pair
           (oneofl [ "decode"; "link"; "watchdog" ])
           (oneofl [ ""; "bad bytes"; "unresolved host import mystery" ]));
    ]

let prop_block_roundtrip =
  QCheck.Test.make ~name:"code-buffer encode/decode round trip" ~count:300
    QCheck.(small_list arb_insn)
    (fun insns ->
      let code = Array.of_list insns in
      Arm.Decode.block_of_string (Arm.Encode.block_to_string code) = code)

let test_decode_rejects_garbage () =
  check_bool "bad opcode" true
    (match Arm.Decode.block_of_string "\x01\x00\x00\x00\xEE" with
    | exception Arm.Decode.Bad_encoding _ -> true
    | _ -> false);
  check_bool "truncated" true
    (match Arm.Decode.block_of_string "\x05\x00\x00\x00" with
    | exception Arm.Decode.Bad_encoding _ -> true
    | _ -> false)

let () =
  Alcotest.run "arm"
    [
      ( "semantics",
        [
          Alcotest.test_case "alu/moves" `Quick test_alu_and_moves;
          Alcotest.test_case "xzr" `Quick test_xzr;
          Alcotest.test_case "memory/branches" `Quick test_memory_and_branches;
          Alcotest.test_case "cset" `Quick test_cset;
          Alcotest.test_case "exclusives" `Quick test_exclusives;
          Alcotest.test_case "stxr monitor" `Quick test_stxr_without_monitor_fails;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "lse atomics" `Quick test_lse_atomics;
          Alcotest.test_case "fp" `Quick test_fp;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "fence costs" `Quick test_fence_costs;
          Alcotest.test_case "cost ordering" `Quick test_fence_ordering_of_costs;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "contention",
        [
          Alcotest.test_case "line transfer" `Quick test_contention_transfer;
          Alcotest.test_case "sharers scaling" `Quick test_sharers_scaling;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "dispatch" `Quick test_helper_dispatch;
          Alcotest.test_case "unknown" `Quick test_unknown_helper_fails;
          Alcotest.test_case "re-registered" `Quick test_helper_reregistered;
          Alcotest.test_case "unknown host traps at execution" `Quick
            test_unknown_host_traps_at_execution;
        ] );
      ( "exits",
        [
          Alcotest.test_case "runaway self-loop" `Quick test_runaway_self_loop;
          Alcotest.test_case "fell through" `Quick test_fell_through;
        ] );
      ( "serialization",
        [
          QCheck_alcotest.to_alcotest prop_block_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
        ] );
    ]
