(** Mapping schemes between x86, TCG IR and Arm litmus programs
    (paper Figures 2, 3 and 7).

    Each scheme is a program-to-program transformation on the
    architecture-neutral litmus AST; the refinement checker
    ({!Check.refines}) verifies Theorem 1 for each of them over the
    litmus corpus. *)

open Litmus.Ast

(** {1 x86 → TCG IR} *)

type frontend =
  | Qemu_frontend
      (** Figure 2: [Fmr; ld] and [Fmw; st]; RMW via helper (SC at IR
          level); MFENCE → Fsc. *)
  | Risotto_frontend
      (** Figure 7a: [ld; Frm] and [Fww; st]; RMW → TCG RMW;
          MFENCE → Fsc. *)
  | No_fences_frontend
      (** The (incorrect) oracle configuration: plain accesses, no
          ordering fences; RMW and MFENCE kept. *)

(** The x86 access classes of the mapping table. *)
type access = [ `Load | `Store | `Rmw | `Mfence ]

type side = [ `Pre | `Post ]

(** The access-class table: [fences frontend side access] is the list
    of TCG fences [frontend] places before ([`Pre]) or after ([`Post])
    an x86 access of class [access].  MFENCE itself emits no access:
    its fences replace it.  This is the one copy of the x86 → TCG
    mapping — {!x86_to_tcg}, the DBT frontend and the figure rows all
    read it.  Entries are constants; a lookup does not allocate. *)
val fences : frontend -> side -> access -> Axiom.Event.fence list

(** The name of the table row a fence came from (["pre-load"],
    ["post-store"], ["pre-mfence"], ...): the DBT tags every fence it
    emits with it. *)
val rule_name : side -> access -> string

val x86_to_tcg : frontend -> prog -> prog

(** {1 TCG IR → Arm} *)

(** How TCG RMW operations reach Arm (paper §3.1, §6.3):
    Qemu lowers via a helper using GCC builtins whose instruction choice
    depends on the GCC version; Risotto either brackets an exclusive
    pair in DMBFFs or emits [casal] directly (Figure 7b). *)
type rmw_lowering =
  | Helper_gcc9  (** [ldaxr]/[stlxr] pair: RMW2_AL *)
  | Helper_gcc10  (** [casal]: RMW1_AL *)
  | Risotto_rmw2  (** DMBFF; RMW2; DMBFF *)
  | Risotto_rmw1  (** [casal] (needs the corrected Arm-Cats model) *)

type backend = { lowering : [ `Qemu | `Risotto ]; rmw : rmw_lowering }

(** The fence lowering that goes with a frontend: Qemu's for the Qemu
    and no-fences frontends, Figure 7b's for Risotto's.  The DBT
    backend and the presets below both derive it here. *)
val lowering : frontend -> [ `Qemu | `Risotto ]

(** [backend frontend rmw] pairs [rmw] with [lowering frontend]. *)
val backend : frontend -> rmw_lowering -> backend

(** {2 The RMW table}

    The one copy of the TCG → Arm RMW mapping: {!lower_rmw} (and so
    {!tcg_to_arm}) builds the litmus code the checker verifies from it,
    and the DBT backend and Qemu's helpers read it for the host code
    they run and the cycles they charge. *)

(** The x86 RMWs: [LOCK CMPXCHG], [LOCK XADD] and [XCHG]. *)
type rmw_op = [ `Cas | `Xadd | `Xchg ]

(** Every op, and every lowering. *)
val rmw_ops : rmw_op list

val rmw_lowerings : rmw_lowering list

(** The name of Qemu's helper for [op] under a helper lowering
    (["helper_cmpxchg_gcc10"], ["helper_xadd_gcc9"], ...), or [None]
    when [op] is lowered inline.  The names are constants; a lookup
    does not allocate. *)
val rmw_helper : rmw_lowering -> rmw_op -> string option

(** One step of an Arm RMW sequence: a [DMB ISH], a single-instruction
    atomic ([casal], [ldaddal], [swpal] and their weaker forms), or a
    load-exclusive / store-exclusive loop.  [acq]/[rel] make the read
    an acquire and the write a release. *)
type rmw_step =
  | Dmb_full
  | Amo of { acq : bool; rel : bool }
  | Exclusive of { acq : bool; rel : bool }

(** [rmw_sequence rmw op]: the Arm steps [rmw] lowers [op] to — the
    helper's body for [Helper_gcc9] ([RMW2_AL]) and [Helper_gcc10]
    ([RMW1_AL]), Figure 7b's [DMBFF; RMW2; DMBFF] for [Risotto_rmw2]
    and [RMW1_AL] for [Risotto_rmw1].  Entries are constants; a lookup
    does not allocate. *)
val rmw_sequence : rmw_lowering -> rmw_op -> rmw_step list

(** [lower_rmw rmw ~reg ~loc op]: {!rmw_sequence} as litmus code, each
    [Amo]/[Exclusive] step an Arm RMW of [op] on [loc]. *)
val lower_rmw :
  rmw_lowering -> reg:string option -> loc:string -> Litmus.Ast.rmw_op -> instr list

val tcg_to_arm : backend -> prog -> prog

(** The Figure-7b fence lowering table (extended to the fences the Qemu
    frontend produces); [None] means no instruction is emitted. *)
val lower_fence :
  [ `Qemu | `Risotto ] -> Axiom.Event.fence -> Axiom.Event.fence option

(** {1 Composed / direct schemes} *)

(** x86 → Arm via TCG, composing the two steps. *)
val x86_to_arm : frontend -> backend -> prog -> prog

(** Figure 3: the "intended" direct mapping inferred from Arm-Cats
    (LDRQ / STRL / RMW1_AL / DMBFF) — shown incorrect under the
    original Arm-Cats model by SBAL. *)
val x86_to_arm_direct_armcats : prog -> prog

(** {1 Presets} *)

(** Qemu as shipped (Figure 2, helper with GCC 10 → casal). *)
val qemu_preset : frontend * backend

(** Risotto with the verified mappings, RMW2 bracketed in DMBFFs. *)
val risotto_rmw2_preset : frontend * backend

(** Risotto with direct casal translation (§6.3). *)
val risotto_casal_preset : frontend * backend

(** Rows of the mapping tables for regeneration of Figures 1, 2, 3, 7.
    The x86 → TCG and fence cells of Figures 2, 7a and 7c are read off
    the access-class table, the fence cells of Figure 7b off
    {!lower_fence}, and the Arm RMW cells of Figures 7b and 7c off
    {!rmw_sequence}. *)
val figure1_rows : (string * string * string * string) list

val figure2_rows : (string * string * string) list

val figure3_rows : (string * string) list
val figure7a_rows : (string * string) list
val figure7b_rows : (string * string) list
val figure7c_rows : (string * string * string) list
