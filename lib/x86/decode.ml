open Insn

exception Bad_encoding of int64 * string

(* Operand tables indexed by encoding fields.  Every register,
   operator and condition comes from one of them, so decoding allocates
   only the instruction it returns: its blocks, a displacement's or
   immediate's box, an index operand's pair. *)
let alus = [| Add; Sub; And; Or; Xor; Shl; Shr; Imul |]
let fpops = [| Fadd; Fsub; Fmul; Fdiv; Fsqrt |]
let ccs = [| E; Ne; L; Le; G; Ge; B; Be; A; Ae |]
let regs = Array.of_list Reg.all
let some_regs = Array.map Option.some regs
let src_regs = Array.map (fun r -> R r) regs

(* The opcode byte fixes the encoded length ({!Encode.length}); 0 for
   an unknown opcode. *)
let length_of_opcode op =
  match op with
  | 0x61 | 0x80 | 0x90 | 0x91 | 0x92 -> 1
  | 0x02 | 0x07 | 0x08 | 0x09 | 0x0A | 0x40 | 0x42 | 0x62 | 0x63 -> 2
  | 0x50 | 0x60 -> 5
  | 0x41 | 0x43 -> 6
  | 0x03 | 0x04 | 0x06 | 0x70 | 0x71 | 0x72 -> 8
  | 0x01 -> 10
  | 0x05 -> 11
  | _ when (op >= 0x10 && op < 0x18) || (op >= 0x30 && op < 0x35) || (op >= 0xA0 && op < 0xAA) -> 2
  | _ when op >= 0x51 && op < 0x5B -> 5
  | _ when op >= 0x18 && op < 0x20 -> 6
  | _ -> 0

let bad pc what b = raise (Bad_encoding (pc, Printf.sprintf "bad %s byte 0x%02x" what b))

(* The readers below take the text, the instruction's pc (for errors)
   and a byte position the length check has already covered. *)

let reg text pc p =
  let b = Char.code text.[p] in
  if b < 16 then regs.(b) else bad pc "register" b

let src_reg text pc p =
  let b = Char.code text.[p] in
  if b < 16 then src_regs.(b) else bad pc "register" b

(* A register-pair byte: two nibbles, each always a register. *)
let hi text p = regs.(Char.code text.[p] lsr 4)
let lo text p = regs.(Char.code text.[p] land 0xF)
let lo_src text p = src_regs.(Char.code text.[p] land 0xF)
let imm32 text p = Int64.of_int32 (String.get_int32_le text p)

(* Base byte (0x10: none), index byte (0xFF: none, else
   [reg lsl 2 lor log2 scale]), disp32. *)
let mem text pc p =
  let b = Char.code text.[p] and ix = Char.code text.[p + 1] in
  let base = if b = 0x10 then None else if b < 16 then some_regs.(b) else bad pc "base register" b in
  let index =
    if ix = 0xFF then None
    else if ix < 0x40 then Some (regs.(ix lsr 2), 1 lsl (ix land 3))
    else bad pc "index" ix
  in
  { base; index; disp = imm32 text (p + 2) }

(* A rel32 branch operand: relative to the end of the instruction. *)
let target text pc len p = Int64.add (Int64.add pc (Int64.of_int len)) (imm32 text p)

let decode text ~pc ~base =
  let start = Int64.to_int (Int64.sub pc base) in
  if start < 0 || start >= String.length text then
    raise (Bad_encoding (pc, "pc outside text section"));
  let op = Char.code text.[start] in
  let len = length_of_opcode op in
  if len = 0 then raise (Bad_encoding (pc, Printf.sprintf "unknown opcode 0x%02x" op));
  if start + len > String.length text then raise (Bad_encoding (pc, "truncated instruction"));
  let p = start + 1 in
  let insn =
    match op with
    | 0x01 -> Mov_ri (reg text pc p, String.get_int64_le text (p + 1))
    | 0x02 -> Mov_rr (hi text p, lo text p)
    | 0x03 -> Load (reg text pc p, mem text pc (p + 1))
    | 0x04 -> Store (mem text pc p, src_reg text pc (p + 6))
    | 0x05 -> Store (mem text pc p, I (imm32 text (p + 6)))
    | 0x06 -> Lea (reg text pc p, mem text pc (p + 1))
    | 0x07 -> Inc (reg text pc p)
    | 0x08 -> Dec (reg text pc p)
    | 0x09 -> Neg (reg text pc p)
    | 0x0A -> Not (reg text pc p)
    | 0x40 -> Cmp (hi text p, lo_src text p)
    | 0x41 -> Cmp (reg text pc p, I (imm32 text (p + 1)))
    | 0x42 -> Test (hi text p, lo_src text p)
    | 0x43 -> Test (reg text pc p, I (imm32 text (p + 1)))
    | 0x50 -> Jmp (target text pc len p)
    | 0x60 -> Call (target text pc len p)
    | 0x61 -> Ret
    | 0x62 -> Push (reg text pc p)
    | 0x63 -> Pop (reg text pc p)
    | 0x70 -> Lock_cmpxchg (mem text pc p, reg text pc (p + 6))
    | 0x71 -> Lock_xadd (mem text pc p, reg text pc (p + 6))
    | 0x72 -> Xchg (mem text pc p, reg text pc (p + 6))
    | 0x80 -> Mfence
    | 0x90 -> Nop
    | 0x91 -> Syscall
    | 0x92 -> Hlt
    | _ when op >= 0x10 && op < 0x18 -> Alu (alus.(op - 0x10), hi text p, lo_src text p)
    | _ when op >= 0x18 && op < 0x20 -> Alu (alus.(op - 0x18), reg text pc p, I (imm32 text (p + 1)))
    | _ when op >= 0x30 && op < 0x35 -> Fp (fpops.(op - 0x30), hi text p, lo text p)
    | _ when op >= 0x51 && op < 0x5B -> Jcc (ccs.(op - 0x51), target text pc len p)
    | _ ->
        (* 0xA0-0xA9: [length_of_opcode] admits no other opcode *)
        Cmov (ccs.(op - 0xA0), hi text p, lo text p)
  in
  (insn, len)
