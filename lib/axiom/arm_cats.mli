(** The Arm-Cats AArch64 axiomatic model (paper Figure 5, after Alglave
    et al. [6]), in two variants:

    - [Original]: the published model, whose [bob] contains
      [po; [A]; amo; [L]; po] — the paper shows (§3.3, SBAL) this is too
      weak for [casal] to emulate an x86 RMW.
    - [Corrected]: the strengthening proposed by the paper and accepted
      upstream, replacing that clause with
      [po; [dom([A]; amo; [L])] ∪ [codom([A]; amo; [L])]; po],
      which makes a successful acquire-release single-copy-atomic RMW act
      as a full barrier.

    Both list the common coherence and atomicity axioms around
    ["Arm (external: ob)"], the acyclicity of [rfe ∪ coe ∪ fre ∪ lob];
    their axiom lists differ in that one [bob] clause only.  On a
    skeleton with no [[A]; amo; [L]] pair that clause is empty in both,
    and corrected's ob axiom declares it agrees there with original's
    ({!Model.agree}): a pass checking one image under both stages and
    tests one. *)

type variant = Original | Corrected

val model : variant -> Model.t

(** Locally-ordered-before, for diagnostics. *)
val lob : variant -> Execution.t -> Relalg.Rel.t
