(** Consistency models as ordered lists of named axioms (paper §5.2,
    Figures 5 and 6), after the cat-style definitions of Alglave et al.

    Each axiom is an acyclicity or an emptiness constraint over one
    relation.  Every model lists the two axioms common to x86, Arm and
    TCG IR, {!coherence} and {!atomicity}, around its own global
    acyclicity axiom.  The list is the single definition that
    [consistent], the enumerator's staged checks, the coverage probe's
    rejection classes and {!Explain}'s witnesses all read.

    {b Staging.}  Most of an axiom's relation follows from a candidate's
    {e skeleton} alone: its events, [po], dependencies and RMW pairs,
    which every candidate of one enumerated combination shares.  Only
    the parts built from [rf] and [co] change between candidates.  An
    axiom's [stage] splits its relation along that line. *)

type shape =
  | Acyclic  (** the relation has no cycle *)
  | Empty  (** the relation has no pair *)

type axiom = {
  name : string;  (** as the coverage matrix, the journal and the report print it *)
  shape : shape;
  stage : Execution.t -> Execution.t -> Relalg.Rel.t;
      (** [stage skel] computes, once, every part of the relation that
          does not depend on [rf] or [co], from [skel]'s events, [po],
          dependencies and RMW pairs ([skel]'s [rf] and [co] are
          ignored); applied to a candidate sharing [skel]'s skeleton, it
          returns the candidate's relation. *)
  witness : Execution.t -> Relalg.Rel.t;
      (** The relation {!Explain} searches for a witness: a cycle for
          [Acyclic], a pair for [Empty].  It has a cycle (a pair) iff
          [stage x x] does; unless given, it is [stage x x]. *)
}

type t = {
  name : string;
  axioms : axiom list;  (** in checking order *)
  consistent : Execution.t -> bool;
      (** Does the execution satisfy every axiom of the model? *)
}

(** [acyclic ?witness name stage]: [stage]'s relation is acyclic. *)
val acyclic :
  ?witness:(Execution.t -> Relalg.Rel.t) ->
  string ->
  (Execution.t -> Execution.t -> Relalg.Rel.t) ->
  axiom

(** [empty name stage]: [stage]'s relation is empty. *)
val empty : string -> (Execution.t -> Execution.t -> Relalg.Rel.t) -> axiom

(** Coherence, ["sc-per-loc (coherence)"]: [(po-loc ∪ rf ∪ co ∪ fr)] is
    acyclic. *)
val coherence : axiom

(** Atomicity, ["atomicity"]: [rmw ∩ (fre; coe) = ∅]. *)
val atomicity : axiom

(** [make name axioms] is the model whose [consistent] holds when every
    axiom does.  [axioms] must list {!coherence} and {!atomicity}
    (physically; [Invalid_argument] otherwise): both relate
    same-location events only, so the enumerator prunes every
    candidate on them one location at a time, for all models at
    once. *)
val make : string -> axiom list -> t

(** [prepare a skel] stages [a] on [skel]: the returned check decides
    [a] on every candidate sharing [skel]'s skeleton.  A skeleton whose
    [po] and RMW pairs are restricted to one location's events checks
    that location's slice of a candidate against {!coherence} and
    {!atomicity}. *)
val prepare : axiom -> Execution.t -> Execution.t -> bool

(** [prepare_all axioms skel]: every axiom of the list holds, each
    staged on [skel] by {!prepare}. *)
val prepare_all : axiom list -> Execution.t -> Execution.t -> bool
