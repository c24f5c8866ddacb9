(* The x86 guest ISA: encoder/decoder round trips, the assembler, and
   the reference interpreter. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let arb_reg = QCheck.map R.of_index QCheck.(int_range 0 15)

let arb_mem =
  QCheck.map
    (fun ((base, index), disp) ->
      { I.base; index; disp = Int64.of_int disp })
    QCheck.(
      pair
        (pair (option arb_reg)
           (option (pair arb_reg (oneofl [ 1; 2; 4; 8 ]))))
        (int_range (-100000) 100000))

let arb_src =
  QCheck.oneof
    [
      QCheck.map (fun r -> I.R r) arb_reg;
      QCheck.map (fun i -> I.I (Int64.of_int i)) QCheck.(int_range (-1000000) 1000000);
    ]

let arb_alu =
  QCheck.oneofl [ I.Add; I.Sub; I.And; I.Or; I.Xor; I.Shl; I.Shr; I.Imul ]

let arb_fp = QCheck.oneofl [ I.Fadd; I.Fsub; I.Fmul; I.Fdiv; I.Fsqrt ]

let arb_cc =
  QCheck.oneofl [ I.E; I.Ne; I.L; I.Le; I.G; I.Ge; I.B; I.Be; I.A; I.Ae ]

let arb_target = QCheck.map (fun t -> Int64.of_int t) QCheck.(int_range 0 100000)

let arb_insn =
  let open QCheck in
  oneof
    [
      map (fun (r, i) -> I.Mov_ri (r, Int64.of_int i)) (pair arb_reg int);
      map (fun (a, b) -> I.Mov_rr (a, b)) (pair arb_reg arb_reg);
      map (fun (r, m) -> I.Load (r, m)) (pair arb_reg arb_mem);
      map (fun (m, s) -> I.Store (m, s)) (pair arb_mem arb_src);
      map (fun (op, r, s) -> I.Alu (op, r, s)) (triple arb_alu arb_reg arb_src);
      map (fun (op, a, b) -> I.Fp (op, a, b)) (triple arb_fp arb_reg arb_reg);
      map (fun (r, s) -> I.Cmp (r, s)) (pair arb_reg arb_src);
      map (fun (r, s) -> I.Test (r, s)) (pair arb_reg arb_src);
      map (fun (r, m) -> I.Lea (r, m)) (pair arb_reg arb_mem);
      map (fun r -> I.Inc r) arb_reg;
      map (fun r -> I.Dec r) arb_reg;
      map (fun r -> I.Neg r) arb_reg;
      map (fun r -> I.Not r) arb_reg;
      map (fun (cc, a, b) -> I.Cmov (cc, a, b)) (triple arb_cc arb_reg arb_reg);
      map (fun t -> I.Jmp t) arb_target;
      map (fun (cc, t) -> I.Jcc (cc, t)) (pair arb_cc arb_target);
      map (fun t -> I.Call t) arb_target;
      always I.Ret;
      map (fun r -> I.Push r) arb_reg;
      map (fun r -> I.Pop r) arb_reg;
      map (fun (m, r) -> I.Lock_cmpxchg (m, r)) (pair arb_mem arb_reg);
      map (fun (m, r) -> I.Lock_xadd (m, r)) (pair arb_mem arb_reg);
      map (fun (m, r) -> I.Xchg (m, r)) (pair arb_mem arb_reg);
      always I.Mfence;
      always I.Nop;
      always I.Syscall;
      always I.Hlt;
    ]

(* Store immediates are encoded as 32 bits; normalise for comparison. *)
let normalise = function
  | I.Store (m, I.I i) -> I.Store (m, I.I (Int64.of_int32 (Int64.to_int32 i)))
  | I.Alu (op, r, I.I i) -> I.Alu (op, r, I.I (Int64.of_int32 (Int64.to_int32 i)))
  | I.Cmp (r, I.I i) -> I.Cmp (r, I.I (Int64.of_int32 (Int64.to_int32 i)))
  | I.Test (r, I.I i) -> I.Test (r, I.I (Int64.of_int32 (Int64.to_int32 i)))
  | i -> i

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round trip" ~count:1000 arb_insn
    (fun insn ->
      let pc = 0x4000L in
      let bytes = X86.Encode.encode ~pc insn in
      let decoded, len = X86.Decode.decode bytes ~pc ~base:pc in
      len = String.length bytes
      && len = X86.Encode.length insn
      && decoded = normalise insn)

let prop_decode_positions =
  QCheck.Test.make ~name:"streams of instructions decode in sequence"
    ~count:200
    QCheck.(small_list arb_insn)
    (fun insns ->
      let base = 0x1000L in
      let buf = Buffer.create 64 in
      let addrs =
        List.fold_left
          (fun pc i ->
            X86.Encode.emit buf ~pc i;
            Int64.add pc (Int64.of_int (X86.Encode.length i)))
          base insns
      in
      ignore addrs;
      let text = Buffer.contents buf in
      let rec go pc = function
        | [] -> true
        | i :: rest ->
            let d, len = X86.Decode.decode text ~pc ~base in
            d = normalise i && go (Int64.add pc (Int64.of_int len)) rest
      in
      go base insns)

(* Any opcode the encoder emits, then operand bytes (biased toward
   valid register, base and index fields so that some decode), cut at
   any length. *)
let arb_fuzz_text =
  let open QCheck in
  let byte = Gen.(oneof [ int_range 0 0x11; int_bound 255; return 0xFF ]) in
  let text insn operands cut =
    let opcode = (X86.Encode.encode ~pc:0L insn).[0] in
    let s = String.make 1 opcode ^ String.of_seq (List.to_seq (List.map Char.chr operands)) in
    String.sub s 0 (min cut (String.length s))
  in
  let hex s =
    String.concat " " (List.init (String.length s) (fun i -> Printf.sprintf "%02X" (Char.code s.[i])))
  in
  make ~print:hex
    Gen.(map3 text (gen arb_insn) (list_size (int_bound 12) byte) (int_range 1 13))

let prop_decode_fuzz =
  QCheck.Test.make ~name:"arbitrary bytes decode exactly or raise Bad_encoding" ~count:2000
    arb_fuzz_text (fun text ->
      let pc = 0x4000L in
      match X86.Decode.decode text ~pc ~base:pc with
      | insn, len ->
          len = X86.Encode.length insn
          && len <= String.length text
          && X86.Encode.encode ~pc insn = String.sub text 0 len
      | exception X86.Decode.Bad_encoding _ -> true)

(* ------------------------------------------------------------------ *)
(* Text assembler parser                                               *)

(* Non-branch instructions (branch operands print as absolute
   addresses, which the text syntax expresses as labels instead). *)
let arb_parsable_insn =
  let open QCheck in
  let mem_ok =
    map
      (fun ((base, index), disp) ->
        (* keep absolute displacements non-negative for printing *)
        let disp = if base = None && index = None then abs disp else disp in
        { I.base; index; disp = Int64.of_int disp })
      (pair
         (pair (option arb_reg) (option (pair arb_reg (oneofl [ 1; 2; 4; 8 ]))))
         (int_range (-10000) 10000))
  in
  oneof
    [
      map (fun (r, i) -> I.Mov_ri (r, Int64.of_int i)) (pair arb_reg int);
      map (fun (a, b) -> I.Mov_rr (a, b)) (pair arb_reg arb_reg);
      map (fun (r, m) -> I.Load (r, m)) (pair arb_reg mem_ok);
      map (fun (m, s) -> I.Store (m, s)) (pair mem_ok arb_src);
      map (fun (op, r, s) -> I.Alu (op, r, s)) (triple arb_alu arb_reg arb_src);
      map (fun (r, m) -> I.Lea (r, m)) (pair arb_reg mem_ok);
      map (fun r -> I.Inc r) arb_reg;
      map (fun r -> I.Dec r) arb_reg;
      map (fun r -> I.Neg r) arb_reg;
      map (fun r -> I.Not r) arb_reg;
      map (fun (cc, a, b) -> I.Cmov (cc, a, b)) (triple arb_cc arb_reg arb_reg);
      map (fun (op, a, b) -> I.Fp (op, a, b)) (triple arb_fp arb_reg arb_reg);
      map (fun (r, s) -> I.Cmp (r, s)) (pair arb_reg arb_src);
      map (fun (r, s) -> I.Test (r, s)) (pair arb_reg arb_src);
      map (fun r -> I.Push r) arb_reg;
      map (fun r -> I.Pop r) arb_reg;
      map (fun (m, r) -> I.Lock_cmpxchg (m, r)) (pair mem_ok arb_reg);
      map (fun (m, r) -> I.Lock_xadd (m, r)) (pair mem_ok arb_reg);
      map (fun (m, r) -> I.Xchg (m, r)) (pair mem_ok arb_reg);
      always I.Ret;
      always I.Mfence;
      always I.Nop;
      always I.Syscall;
      always I.Hlt;
    ]

let prop_parse_pp_roundtrip =
  QCheck.Test.make ~name:"parse (pp insn) = insn" ~count:1000
    arb_parsable_insn (fun insn ->
      X86.Parse.parse_insn (Fmt.str "%a" I.pp insn) = insn)

let test_parse_program () =
  let items =
    X86.Parse.parse
      "main:\n\
      \  mov rax, $0      # comment\n\
      \  mov rbx, $5\n\
       loop:\n\
      \  add rax, rbx\n\
      \  dec rbx\n\
      \  test rbx, rbx\n\
      \  jne loop\n\
      \  mov [rax+rbx*8+16], rax\n\
      \  mov rdi, @loop\n\
      \  hlt\n"
  in
  check_int "items" 11 (List.length items);
  (* assemble and run it to prove the pieces connect *)
  let a = assemble items in
  let s = X86.Interp.create ~code:a.code ~base:a.org ~entry:(symbol a "main") () in
  ignore (X86.Interp.run s);
  check_i64 "sum 5..1" 15L s.X86.Interp.regs.(R.index R.RAX);
  check_i64 "label operand" (symbol a "loop") s.X86.Interp.regs.(R.index R.RDI)

let test_parse_errors2 () =
  let fails s =
    match X86.Parse.parse s with
    | exception X86.Parse.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad register" true (fails "mov rq, $1");
  Alcotest.(check bool) "bad mnemonic" true (fails "frob rax");
  Alcotest.(check bool) "trailing" true (fails "ret ret");
  Alcotest.(check bool) "two indexes" true (fails "mov rax, [rbx*2+rcx*2]")

(* ------------------------------------------------------------------ *)
(* Assembler                                                           *)

let test_asm_labels () =
  let a =
    assemble
      [
        Label "start";
        Ins (I.Mov_ri (R.RAX, 1L));
        Jmp_lbl "end";
        Label "mid";
        Ins I.Nop;
        Label "end";
        Ins I.Hlt;
      ]
  in
  let start = symbol a "start" in
  check_i64 "start at org" 0x1000L start;
  let endl = symbol a "end" in
  (* Decode the Jmp and check it targets "end". *)
  let jmp_addr = Int64.add start 10L in
  let insn, _ = X86.Decode.decode a.code ~pc:jmp_addr ~base:a.org in
  (match insn with
  | I.Jmp t -> check_i64 "jmp resolves label" endl t
  | i -> Alcotest.failf "expected jmp, got %a" I.pp i);
  let rec count pc n =
    if Int64.to_int (Int64.sub pc a.org) >= String.length a.code then n
    else
      let _, len = X86.Decode.decode a.code ~pc ~base:a.org in
      count (Int64.add pc (Int64.of_int len)) (n + 1)
  in
  check_int "code decodes to 4 instructions" 4 (count a.org 0)

let test_asm_errors () =
  Alcotest.check_raises "undefined label" (Undefined_label "nope") (fun () ->
      ignore (assemble [ Jmp_lbl "nope" ]));
  Alcotest.check_raises "duplicate label" (Duplicate_label "l") (fun () ->
      ignore (assemble [ Label "l"; Label "l" ]))

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

let run_items ?(regs = []) items =
  let a = assemble items in
  let s = X86.Interp.create ~code:a.code ~base:a.org ~entry:(symbol a "main") () in
  s.X86.Interp.regs.(R.index R.RSP) <- 0x8000_0000L;
  List.iter (fun (r, v) -> s.X86.Interp.regs.(R.index r) <- v) regs;
  ignore (X86.Interp.run s);
  s

let reg s r = s.X86.Interp.regs.(R.index r)

let test_interp_arith () =
  let s =
    run_items
      [
        Label "main";
        Ins (I.Mov_ri (R.RAX, 10L));
        Ins (I.Alu (I.Add, R.RAX, I.I 5L));
        Ins (I.Alu (I.Imul, R.RAX, I.I 3L));
        Ins (I.Alu (I.Shl, R.RAX, I.I 2L));
        Ins (I.Alu (I.Xor, R.RAX, I.I 0xFL));
        Ins I.Hlt;
      ]
  in
  check_i64 "((10+5)*3)<<2 ^ 15" (Int64.logxor 180L 15L) (reg s R.RAX)

let test_interp_loop_and_flags () =
  let s =
    run_items
      [
        Label "main";
        Ins (I.Mov_ri (R.RAX, 0L));
        Ins (I.Mov_ri (R.RBX, 1L));
        Label "loop";
        Ins (I.Alu (I.Add, R.RAX, I.R R.RBX));
        Ins (I.Alu (I.Add, R.RBX, I.I 1L));
        Ins (I.Cmp (R.RBX, I.I 11L));
        Jcc_lbl (I.Ne, "loop");
        Ins I.Hlt;
      ]
  in
  check_i64 "sum 1..10" 55L (reg s R.RAX)

let test_interp_stack_and_calls () =
  let s =
    run_items
      [
        Label "main";
        Ins (I.Mov_ri (R.RDI, 20L));
        Call_lbl "double";
        Ins (I.Mov_rr (R.RBX, R.RAX));
        Ins I.Hlt;
        Label "double";
        Ins (I.Mov_rr (R.RAX, R.RDI));
        Ins (I.Alu (I.Add, R.RAX, I.R R.RDI));
        Ins I.Ret;
      ]
  in
  check_i64 "call/ret" 40L (reg s R.RBX);
  check_i64 "stack balanced" 0x8000_0000L (reg s R.RSP)

let test_interp_cmpxchg () =
  let mem_op = { I.base = None; index = None; disp = 0x9000L } in
  let s =
    run_items
      [
        Label "main";
        Ins (I.Store (mem_op, I.I 5L));
        Ins (I.Mov_ri (R.RAX, 5L));
        Ins (I.Mov_ri (R.RCX, 9L));
        Ins (I.Lock_cmpxchg (mem_op, R.RCX));
        Jcc_lbl (I.E, "ok");
        Ins I.Hlt;
        Label "ok";
        Ins (I.Mov_ri (R.RBX, 1L));
        (* Second cmpxchg fails: RAX=5 but memory is 9. *)
        Ins (I.Lock_cmpxchg (mem_op, R.RCX));
        Jcc_lbl (I.Ne, "fail_seen");
        Ins I.Hlt;
        Label "fail_seen";
        Ins (I.Mov_ri (R.RDX, 2L));
        Ins I.Hlt;
      ]
  in
  check_i64 "success path" 1L (reg s R.RBX);
  check_i64 "failure path" 2L (reg s R.RDX);
  check_i64 "rax loaded with old value" 9L (reg s R.RAX);
  check_i64 "memory swapped" 9L (Memsys.Mem.load s.X86.Interp.mem 0x9000L)

let test_interp_xadd_xchg () =
  let m = { I.base = None; index = None; disp = 0x9100L } in
  let s =
    run_items
      [
        Label "main";
        Ins (I.Store (m, I.I 10L));
        Ins (I.Mov_ri (R.RCX, 7L));
        Ins (I.Lock_xadd (m, R.RCX));
        Ins (I.Mov_ri (R.RDX, 100L));
        Ins (I.Xchg (m, R.RDX));
        Ins I.Hlt;
      ]
  in
  check_i64 "xadd returns old" 10L (reg s R.RCX);
  check_i64 "xchg returns old" 17L (reg s R.RDX);
  check_i64 "memory after xchg" 100L (Memsys.Mem.load s.X86.Interp.mem 0x9100L)

let test_interp_fp () =
  let s =
    run_items
      [
        Label "main";
        Ins (I.Mov_ri (R.RAX, Int64.bits_of_float 9.0));
        Ins (I.Fp (I.Fsqrt, R.RBX, R.RAX));
        Ins (I.Mov_ri (R.RCX, Int64.bits_of_float 0.5));
        Ins (I.Fp (I.Fadd, R.RBX, R.RCX));
        Ins I.Hlt;
      ]
  in
  Alcotest.(check (float 1e-9)) "sqrt(9)+0.5" 3.5
    (Int64.float_of_bits (reg s R.RBX))

let test_interp_syscalls () =
  let s =
    run_items
      [
        Label "main";
        (* write "hi" from 0xA000 *)
        Ins (I.Store ({ I.base = None; index = None; disp = 0xA000L }, I.I 0x6968L));
        Ins (I.Mov_ri (R.RAX, 1L));
        Ins (I.Mov_ri (R.RDI, 1L));
        Ins (I.Mov_ri (R.RSI, 0xA000L));
        Ins (I.Mov_ri (R.RDX, 2L));
        Ins I.Syscall;
        Ins (I.Mov_ri (R.RAX, 60L));
        Ins (I.Mov_ri (R.RDI, 42L));
        Ins I.Syscall;
        Ins I.Nop;
      ]
  in
  Alcotest.(check string) "write output" "hi" (Buffer.contents s.X86.Interp.output);
  check_i64 "exit code" 42L s.X86.Interp.exit_code;
  Alcotest.(check bool) "halted" true s.X86.Interp.halted

let test_eval_cc () =
  let t cc a b exp =
    Alcotest.(check bool)
      (Printf.sprintf "cc %Ld %Ld" a b)
      exp
      (X86.Interp.eval_cc cc (a, b))
  in
  t I.E 3L 3L true;
  t I.L (-1L) 1L true;
  t I.B (-1L) 1L false (* unsigned: -1 is huge *);
  t I.A (-1L) 1L true;
  t I.Ge 5L 5L true;
  t I.Le 6L 5L false

let () =
  Alcotest.run "x86"
    [
      ( "encoding",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_positions;
          QCheck_alcotest.to_alcotest prop_decode_fuzz;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "labels" `Quick test_asm_labels;
          Alcotest.test_case "errors" `Quick test_asm_errors;
        ] );
      ( "text syntax",
        [
          QCheck_alcotest.to_alcotest prop_parse_pp_roundtrip;
          Alcotest.test_case "program" `Quick test_parse_program;
          Alcotest.test_case "errors" `Quick test_parse_errors2;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "loop and flags" `Quick test_interp_loop_and_flags;
          Alcotest.test_case "stack and calls" `Quick test_interp_stack_and_calls;
          Alcotest.test_case "cmpxchg" `Quick test_interp_cmpxchg;
          Alcotest.test_case "xadd/xchg" `Quick test_interp_xadd_xchg;
          Alcotest.test_case "floating point" `Quick test_interp_fp;
          Alcotest.test_case "syscalls" `Quick test_interp_syscalls;
          Alcotest.test_case "condition codes" `Quick test_eval_cc;
        ] );
    ]
