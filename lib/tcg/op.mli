(** The TCG IR: the DBT's architecture-independent intermediate
    representation (paper §2.3).

    Temps below {!nb_globals} are globals holding guest CPU state across
    translation blocks: temps 0–15 mirror the guest GP registers, and
    {!cmp_a}/{!cmp_b} hold the operands of the last flag-setting
    comparison (the frontend's lazy-flags discipline).  Larger temps are
    block-local. *)

type temp = int

val nb_globals : int

(** Guest register globals. *)
val guest_reg : int -> temp

(** Lazy condition-flag globals. *)
val cmp_a : temp

val cmp_b : temp

(** First block-local temp. *)
val first_local : temp

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Mul
type cond = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

(** Fence provenance: the guest instruction pc that caused the fence
    and the mapping-table row that placed it
    ({!Mapping.Schemes.rule_name}: ["pre-load"], ["post-load"],
    ["pre-store"], ...).  A {!Fenceopt} merge survivor keeps the origin
    of the earliest fence it absorbed into. *)
type origin = { opc : int64; rule : string }

(** No provenance ([opc = -1L], rule ["none"]): fences built outside
    the frontend (tests, synthetic blocks). *)
val no_origin : origin

type t =
  | Movi of temp * int64
  | Mov of temp * temp
  | Binop of binop * temp * temp * temp  (** dst, a, b *)
  | Binopi of binop * temp * temp * int64
  | Ld of temp * temp * int64  (** dst ← [base + off] *)
  | St of temp * temp * int64  (** [base + off] ← src *)
  | Mb of (Axiom.Event.fence * origin)
      (** memory barrier (TCG fence kinds), tagged with provenance *)
  | Setcond of cond * temp * temp * temp
  | Brcond of cond * temp * temp * int  (** branch to label if cond *)
  | Set_label of int
  | Br of int
  | Cas of { old : temp; addr : temp; expect : temp; desired : temp }
      (** SC compare-and-swap: the direct-translation TCG op Risotto
          adds (§6.3); [old] receives the previous value *)
  | Atomic of { op : [ `Xadd | `Xchg ]; old : temp; addr : temp; src : temp }
  | Call of string * temp list * temp option
      (** Qemu-style helper call (RMW helpers, softfloat) *)
  | Host_call of { func : string; args : temp list; ret : temp option }
      (** direct native shared-library call emitted by the dynamic host
          linker (§6.2) *)
  | Goto_tb of int64  (** static jump to the block at a guest pc *)
  | Goto_ptr of temp  (** computed jump (ret, indirect) *)
  | Exit_halt
  | Trap of string * string
      (** exit: fault the executing guest thread.  Carries a fault-kind
          tag (see [Core.Fault.of_tag]) and a human-readable context.
          Emitted by the frontend for undecodable guest code and for
          link stubs whose host symbol is missing: executing the block
          traps the calling thread only. *)

(** [mb ?origin f] builds a barrier op; [origin] defaults to
    {!no_origin}. *)
val mb : ?origin:origin -> Axiom.Event.fence -> t

(** Temps read / written by an op. *)
val reads : t -> temp list

val writes : t -> temp list

(** Pure ops compute values without memory or control effects and are
    removable when their destination is dead. *)
val is_pure : t -> bool

val eval_binop : binop -> int64 -> int64 -> int64
val eval_cond : cond -> int64 -> int64 -> bool
val pp : Format.formatter -> t -> unit
