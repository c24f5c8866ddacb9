(** Combinators for writing litmus programs concisely in OCaml. *)

open Ast

val ( ! ) : int -> exp
val r : string -> exp

(** Plain load / store (x86 RMOV/WMOV, TCG ld/st, Arm LDR/STR).
    [ld reg loc], [st loc value]. *)
val ld : string -> string -> instr

val st : string -> int -> instr
val st_e : string -> exp -> instr

(** Arm annotated accesses. *)
val ld_acq : string -> string -> instr

val ld_q : string -> string -> instr
val st_rel : string -> int -> instr

(** Fences. *)
val mfence : instr

val dmb_full : instr
val dmb_ld : instr
val dmb_st : instr
val fence : Axiom.Event.fence -> instr

(** Compare-and-swap in each architecture's flavour.  [cas_* loc expect
    desired]. *)
val cas_x86 : ?reg:string -> string -> int -> int -> instr

val cas_tcg : ?reg:string -> string -> int -> int -> instr
val cas_amo_al : ?reg:string -> string -> int -> int -> instr
val cas_lxsx : ?reg:string -> ?acq:bool -> ?rel:bool -> string -> int -> int -> instr

(** x86 [LOCK XADD] and [XCHG]: [xadd_x86 loc addend],
    [xchg_x86 loc value]. *)
val xadd_x86 : ?reg:string -> string -> int -> instr

val xchg_x86 : ?reg:string -> string -> int -> instr

val assign : string -> exp -> instr
val if_ : exp -> instr list -> instr
val if_else : exp -> instr list -> instr list -> instr

val prog : string -> (string * int) list -> instr list list -> prog
(** [prog name init [code0; code1; ...]] numbers threads from 0. *)

(** Condition combinators. *)
val reg_is : int -> string -> int -> cond

val loc_is : string -> int -> cond
val ( &&& ) : cond -> cond -> cond
val ( ||| ) : cond -> cond -> cond

val forbidden : cond -> prog -> test
val allowed : cond -> prog -> test
