(** Architecture-neutral litmus programs.

    One AST serves x86, TCG IR and Arm programs: instructions carry the
    access annotations of the architecture they are written for, and the
    memory models interpret the annotations they know about.  Mapping
    schemes (lib/mapping) are functions from programs to programs. *)

(** Thread-local expressions over registers. *)
type exp =
  | Int of int
  | Reg of string
  | Add of exp * exp
  | Sub of exp * exp
  | Mul of exp * exp
  | Xor of exp * exp
  | Eq of exp * exp  (** 1 if equal else 0 *)
  | Ne of exp * exp

(** Arm RMW implementation style: a single-copy-atomic instruction
    ([casal] family — the [amo] relation) or a load-exclusive /
    store-exclusive loop (the [lxsx] relation). *)
type rmw_impl = Amo | Lxsx

type rmw_kind =
  | Rmw_x86  (** x86 [LOCK CMPXCHG]: plain events, full-fence via [rmw] *)
  | Rmw_tcg  (** TCG IR RMW: Rsc/Wsc events *)
  | Rmw_arm of { impl : rmw_impl; acq : bool; rel : bool }

(** What an RMW writes, given the value it reads: a compare-and-swap
    writes [desired] when it reads [expect] and nothing otherwise; a
    fetch-and-add writes the value read plus its operand; an exchange
    writes its operand. *)
type rmw_op =
  | Cas of { expect : exp; desired : exp }  (** x86 [LOCK CMPXCHG] *)
  | Fetch_add of exp  (** x86 [LOCK XADD] *)
  | Exchange of exp  (** x86 [XCHG] *)

type instr =
  | Load of { reg : string; loc : string; ord : Axiom.Event.read_ord }
  | Store of { loc : string; value : exp; ord : Axiom.Event.write_ord }
  | Rmw of {
      reg : string option;  (** receives the value read *)
      loc : string;
      op : rmw_op;
      kind : rmw_kind;
    }  (** one read, then at most one write, of [loc] *)
  | Fence of Axiom.Event.fence
  | Assign of string * exp
  | If of { cond : exp; then_ : instr list; else_ : instr list }

type thread = { tid : int; code : instr list }

type prog = { name : string; init : (string * int) list; threads : thread list }

(** Conditions over final states, as in litmus [exists] clauses. *)
type cond =
  | Reg_is of int * string * int  (** [tid:reg = v] *)
  | Loc_is of string * int
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | True

(** [Allowed c]: some consistent execution satisfies [c].
    [Forbidden c]: no consistent execution satisfies [c]. *)
type expectation = Allowed of cond | Forbidden of cond

type test = { prog : prog; expect : expectation }

(** The mnemonic an RMW renders with: ["cas"], ["xadd"] or ["xchg"]. *)
val rmw_name : rmw_op -> string

val locations : prog -> string list
(** All shared locations mentioned, including init-only ones. *)

val exp_regs : string list -> exp -> string list
(** [exp_regs acc e]: the registers [e] reads, each occurrence, onto
    [acc]. *)

val registers : thread -> string list
(** Registers written by a thread's code, in first-write order. *)

val map_instrs : (instr -> instr list) -> prog -> prog
(** Apply an instruction-level rewriting to every thread, recursing into
    [If] branches.  The rewriting of one instruction may expand to a
    sequence (used by the mapping schemes). *)

val read_ann : Axiom.Event.read_ord -> string
(** Ordering suffix used in renderings ([""], [".acq"], …). *)

val write_ann : Axiom.Event.write_ord -> string
val rmw_kind_name : rmw_kind -> string

val pp_exp : Format.formatter -> exp -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_prog : Format.formatter -> prog -> unit
val pp_cond : Format.formatter -> cond -> unit
val pp_expectation : Format.formatter -> expectation -> unit
