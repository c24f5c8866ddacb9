(** The x86-64 guest instruction subset.

    A realistic working subset for user-mode programs: 64-bit moves,
    loads/stores with base+displacement addressing, ALU and scalar
    double-precision SSE arithmetic, compare/branch, call/ret with a
    stack, LOCK-prefixed RMWs ([CMPXCHG], [XADD], [XCHG]), [MFENCE] and
    [SYSCALL].  Branch/call operands are absolute guest addresses in the
    AST; the byte encoding uses rel32 displacements like real x86. *)

type alu = Add | Sub | And | Or | Xor | Shl | Shr | Imul

(** Scalar double SSE operations ([addsd], ..., [sqrtsd]); values live
    bit-boxed in general-purpose registers in this subset. *)
type fpop = Fadd | Fsub | Fmul | Fdiv | Fsqrt

type src = R of Reg.t | I of int64

(** Memory operand: [base + index*scale + disp]; scale ∈ {1,2,4,8}. *)
type mem = { base : Reg.t option; index : (Reg.t * int) option; disp : int64 }

(** [abs disp] / [based r disp]: common operand shorthands. *)
val abs : int64 -> mem

val based : Reg.t -> int64 -> mem
val indexed : Reg.t -> Reg.t -> int -> int64 -> mem

type cc = E | Ne | L | Le | G | Ge | B | Be | A | Ae

type t =
  | Mov_ri of Reg.t * int64
  | Mov_rr of Reg.t * Reg.t
  | Load of Reg.t * mem  (** [mov r, [m]] *)
  | Store of mem * src  (** [mov [m], r/imm] *)
  | Alu of alu * Reg.t * src
  | Lea of Reg.t * mem  (** address computation, no memory access *)
  | Inc of Reg.t
  | Dec of Reg.t
  | Neg of Reg.t
  | Not of Reg.t
  | Cmov of cc * Reg.t * Reg.t  (** conditional move (flags from last Cmp/Test) *)
  | Fp of fpop * Reg.t * Reg.t
  | Cmp of Reg.t * src
  | Test of Reg.t * src  (** flags := (a land b ?= 0) *)
  | Jmp of int64
  | Jcc of cc * int64
  | Call of int64
  | Ret
  | Push of Reg.t
  | Pop of Reg.t
  | Lock_cmpxchg of mem * Reg.t  (** compare [m] with RAX; ZF; RAX←old *)
  | Lock_xadd of mem * Reg.t  (** r←old, [m]←old+r, atomically *)
  | Xchg of mem * Reg.t  (** implicitly locked *)
  | Mfence
  | Nop
  | Syscall
  | Hlt

val pp_mem : Format.formatter -> mem -> unit
val pp : Format.formatter -> t -> unit
