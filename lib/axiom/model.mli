(** Consistency models and the axioms common to x86, Arm and TCG IR
    (paper §5.2): SC-per-location (coherence) and RMW atomicity.

    {b Staging.}  Every model here is an acyclicity constraint over a
    base relation, and most of that relation follows from a candidate's
    {e skeleton} alone: its events, [po], dependencies and RMW pairs,
    which every candidate of one enumerated combination shares.  Only
    the parts built from [rf] and [co] change between candidates.
    {!field-prepare} splits a model's own axiom along that line. *)

type t = {
  name : string;
  consistent : Execution.t -> bool;
      (** Does the execution satisfy every axiom of the model? *)
  prepare : Execution.t -> Execution.t -> bool;
      (** [prepare skel] computes, once, every relation of the model's
          own axiom that does not depend on [rf] or [co], from [skel]'s
          events, [po], dependencies and RMW pairs ([skel]'s [rf] and
          [co] are ignored).  The returned check tests that axiom — not
          the common ones — on a candidate sharing [skel]'s skeleton:
          [consistent x = common x && prepare x x]. *)
}

(** [make name prepare] is the model whose own axiom is staged by
    [prepare] and whose [consistent] adds the common axioms. *)
val make : string -> (Execution.t -> Execution.t -> bool) -> t

(** Coherence: [(po-loc ∪ rf ∪ co ∪ fr)] is acyclic. *)
val sc_per_loc : Execution.t -> bool

(** Atomicity: [rmw ∩ (fre; coe) = ∅]. *)
val atomicity : Execution.t -> bool

(** Both common axioms. *)
val common : Execution.t -> bool

(** [prepare_common skel] is {!common} staged like {!field-prepare}:
    [po-loc] and [rmw] are computed once from [skel], and the returned
    check agrees with [common] on every candidate sharing [skel]'s
    skeleton.  Both common axioms relate same-location events only, so
    a skeleton whose [po] and RMW pairs are restricted to one
    location's events checks that location's slice of a candidate. *)
val prepare_common : Execution.t -> Execution.t -> bool

(** The two halves of {!prepare_common}: [prepare_coherence skel]
    stages {!sc_per_loc} on [po-loc], [prepare_atomicity skel] stages
    {!atomicity} on the RMW pairs.  A caller that must tell the two
    apart (the coverage probe, which counts each rejection under the
    first axiom {!Explain.check} finds violated) runs them
    separately. *)
val prepare_coherence : Execution.t -> Execution.t -> bool

val prepare_atomicity : Execution.t -> Execution.t -> bool
