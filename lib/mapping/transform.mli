(** The IR transformations of paper §5.4 / Figure 10 as syntactic
    rewrites on (TCG-level) litmus programs:

    {v
    R(X,v) · R(X,v')        ↝ R(X,v)            (RAR)
    W(X,v) · R(X,v)         ↝ W(X,v)            (RAW)
    W(X,v) · W(X,v')        ↝ W(X,v')           (WAW)
    R(X,v) · Fo · R(X,v')   ↝ R(X,v) · Fo       (F-RAR)   o ∈ {rm,ww}
    W(X,v) · Fτ · R(X,v)    ↝ W(X,v) · Fτ       (F-RAW)   τ ∈ {sc,ww}
    W(X,v) · Fo · W(X,v')   ↝ Fo · W(X,v')      (F-WAW)   o ∈ {rm,ww}
    v}

    plus fence merging, reordering of independent accesses, and false
    dependency elimination (§6.1).  Each rule application site yields a
    candidate target program; soundness is established by checking
    Theorem-1 refinement under the TCG model on both sides.

    The Figure-10 rules are sound on programs free of [Fmr]/[Fwr]
    fences — which the verified x86→IR scheme guarantees (§4.1).  On the
    FMR program (which contains an [Fmr]) the plain [Raw] rule is
    {e unsound}: applying it reproduces the paper's §3.2 counterexample,
    and {!soundness} reports the violation. *)

type rule =
  | Rar
  | Raw
  | Waw
  | F_rar
  | F_raw
  | F_waw
  | Fence_merge
  | Reorder
  | False_dep_elim

val rule_name : rule -> string
val all_rules : rule list

(** The crossing table: the fences a Figure-10 fenced elimination
    ([F_rar], [F_raw], [F_waw]) may cross; [[]] for every other rule.
    The DBT's memory-access optimizer ({!Tcg.Memopt}) reads it too. *)
val crossable : rule -> Axiom.Event.fence list

(** All programs obtained by applying the rule at one site. *)
val applications : rule -> Litmus.Ast.prog -> Litmus.Ast.prog list

(** Check every application of [rule] on [prog] for refinement under
    the TCG model; returns one report per application site. *)
val soundness : rule -> Litmus.Ast.prog -> Check.report list

(** TCG-level programs exhibiting each rule's pattern in racy contexts,
    used by the tests and the verification report. *)
val corpus : (string * Litmus.Ast.prog) list
