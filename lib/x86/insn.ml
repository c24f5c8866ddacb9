type alu = Add | Sub | And | Or | Xor | Shl | Shr | Imul
type fpop = Fadd | Fsub | Fmul | Fdiv | Fsqrt
type src = R of Reg.t | I of int64
type mem = { base : Reg.t option; index : (Reg.t * int) option; disp : int64 }

let abs disp = { base = None; index = None; disp }
let based r disp = { base = Some r; index = None; disp }
let indexed b i scale disp = { base = Some b; index = Some (i, scale); disp }
type cc = E | Ne | L | Le | G | Ge | B | Be | A | Ae

type t =
  | Mov_ri of Reg.t * int64
  | Mov_rr of Reg.t * Reg.t
  | Load of Reg.t * mem
  | Store of mem * src
  | Alu of alu * Reg.t * src
  | Lea of Reg.t * mem
  | Inc of Reg.t
  | Dec of Reg.t
  | Neg of Reg.t
  | Not of Reg.t
  | Cmov of cc * Reg.t * Reg.t
  | Fp of fpop * Reg.t * Reg.t
  | Cmp of Reg.t * src
  | Test of Reg.t * src
  | Jmp of int64
  | Jcc of cc * int64
  | Call of int64
  | Ret
  | Push of Reg.t
  | Pop of Reg.t
  | Lock_cmpxchg of mem * Reg.t
  | Lock_xadd of mem * Reg.t
  | Xchg of mem * Reg.t
  | Mfence
  | Nop
  | Syscall
  | Hlt

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Imul -> "imul"

let fp_name = function
  | Fadd -> "addsd"
  | Fsub -> "subsd"
  | Fmul -> "mulsd"
  | Fdiv -> "divsd"
  | Fsqrt -> "sqrtsd"

let cc_name = function
  | E -> "e"
  | Ne -> "ne"
  | L -> "l"
  | Le -> "le"
  | G -> "g"
  | Ge -> "ge"
  | B -> "b"
  | Be -> "be"
  | A -> "a"
  | Ae -> "ae"

let pp_mem ppf m =
  match (m.base, m.index) with
  | Some b, Some (i, s) ->
      Fmt.pf ppf "[%a+%a*%d%+Ld]" Reg.pp b Reg.pp i s m.disp
  | Some b, None -> Fmt.pf ppf "[%a%+Ld]" Reg.pp b m.disp
  | None, Some (i, s) -> Fmt.pf ppf "[%a*%d%+Ld]" Reg.pp i s m.disp
  | None, None -> Fmt.pf ppf "[0x%Lx]" m.disp

let pp_src ppf = function
  | R r -> Reg.pp ppf r
  | I i -> Fmt.pf ppf "$%Ld" i

let pp ppf = function
  | Mov_ri (r, i) -> Fmt.pf ppf "mov %a, $%Ld" Reg.pp r i
  | Mov_rr (a, b) -> Fmt.pf ppf "mov %a, %a" Reg.pp a Reg.pp b
  | Load (r, m) -> Fmt.pf ppf "mov %a, %a" Reg.pp r pp_mem m
  | Store (m, s) -> Fmt.pf ppf "mov %a, %a" pp_mem m pp_src s
  | Alu (op, r, s) -> Fmt.pf ppf "%s %a, %a" (alu_name op) Reg.pp r pp_src s
  | Lea (r, m) -> Fmt.pf ppf "lea %a, %a" Reg.pp r pp_mem m
  | Inc r -> Fmt.pf ppf "inc %a" Reg.pp r
  | Dec r -> Fmt.pf ppf "dec %a" Reg.pp r
  | Neg r -> Fmt.pf ppf "neg %a" Reg.pp r
  | Not r -> Fmt.pf ppf "not %a" Reg.pp r
  | Cmov (cc, a, b) ->
      Fmt.pf ppf "cmov%s %a, %a" (cc_name cc) Reg.pp a Reg.pp b
  | Fp (op, a, b) -> Fmt.pf ppf "%s %a, %a" (fp_name op) Reg.pp a Reg.pp b
  | Cmp (r, s) -> Fmt.pf ppf "cmp %a, %a" Reg.pp r pp_src s
  | Test (r, s) -> Fmt.pf ppf "test %a, %a" Reg.pp r pp_src s
  | Jmp t -> Fmt.pf ppf "jmp 0x%Lx" t
  | Jcc (cc, t) -> Fmt.pf ppf "j%s 0x%Lx" (cc_name cc) t
  | Call t -> Fmt.pf ppf "call 0x%Lx" t
  | Ret -> Fmt.string ppf "ret"
  | Push r -> Fmt.pf ppf "push %a" Reg.pp r
  | Pop r -> Fmt.pf ppf "pop %a" Reg.pp r
  | Lock_cmpxchg (m, r) -> Fmt.pf ppf "lock cmpxchg %a, %a" pp_mem m Reg.pp r
  | Lock_xadd (m, r) -> Fmt.pf ppf "lock xadd %a, %a" pp_mem m Reg.pp r
  | Xchg (m, r) -> Fmt.pf ppf "xchg %a, %a" pp_mem m Reg.pp r
  | Mfence -> Fmt.string ppf "mfence"
  | Nop -> Fmt.string ppf "nop"
  | Syscall -> Fmt.string ppf "syscall"
  | Hlt -> Fmt.string ppf "hlt"
