(** The AArch64 host instruction subset emitted by the DBT backend.

    Registers are numbered 0–31 (31 is XZR).  Branch targets are
    instruction indices within the enclosing code block (the backend
    resolves TCG labels when emitting).  Two pseudo-instructions model
    control transfers whose mechanics are outside the subset:
    [Blr_helper] (a BLR into a Qemu C helper and back) and [Host_call]
    (the dynamic host linker's marshaled call into a native shared
    library, §6.2). *)

type reg = int

val xzr : reg

type alu = Add | Sub | And | Orr | Eor | Lsl | Lsr | Mul
type fpop = Fadd | Fsub | Fmul | Fdiv | Fsqrt
type barrier = Full | Ld | St
type operand = R of reg | I of int64
type cc = Eq | Ne | Lt | Le | Gt | Ge | Lo | Ls | Hi | Hs

type t =
  | Movz of reg * int64
  | Mov of reg * reg
  | Alu of alu * reg * reg * operand
  | Ldr of reg * reg * int64  (** dst ← [base + off] *)
  | Str of reg * reg * int64  (** [base + off] ← src *)
  | Ldar of reg * reg  (** load-acquire *)
  | Ldapr of reg * reg  (** load-acquirePC (the Q set) *)
  | Stlr of reg * reg  (** store-release: [base] ← src *)
  | Ldxr of reg * reg
  | Ldaxr of reg * reg
  | Stxr of reg * reg * reg  (** status, src, base; status=0 on success *)
  | Stlxr of reg * reg * reg
  | Cas of { acq : bool; rel : bool; cmp : reg; swap : reg; base : reg }
      (** CAS family; [casal] when both [acq] and [rel]; [cmp] receives
          the old value *)
  | Ldadd of { acq : bool; rel : bool; old : reg; src : reg; base : reg }
      (** LSE atomic add ([ldaddal] when acq+rel) *)
  | Swp of { acq : bool; rel : bool; old : reg; src : reg; base : reg }
      (** LSE atomic swap ([swpal] when acq+rel) *)
  | Dmb of barrier
  | Cmp of reg * operand
  | B of int
  | Bcc of cc * int
  | Cbz of reg * int
  | Cbnz of reg * int
  | Cset of reg * cc  (** 1 if the last comparison satisfies cc, else 0 *)
  | Fp of fpop * reg * reg * reg  (** native scalar double *)
  | Blr_helper of string * reg list * reg option
  | Host_call of { func : string; args : reg list; ret : reg option }
  | Goto_tb of int64  (** exit: chain to the block at a guest pc *)
  | Goto_ptr of reg  (** exit: computed guest target *)
  | Exit_halt
  | Trap of { kind : string; context : string }
      (** exit: fault the executing guest thread (undecodable guest
          code, unresolvable link stub).  [kind] is a fault-kind tag
          (see [Core.Fault.of_tag]); [context] is human-readable. *)

val pp : Format.formatter -> t -> unit
