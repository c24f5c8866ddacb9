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
    which every candidate of one enumerated combination shares, and so
    does every combination of one shape (their runs differ only in
    values, which no axiom reads).  Only the parts built from [rf] and
    [co] change between candidates.  An axiom's [stage] splits its
    relation along that line. *)

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
  agrees : (axiom * (Execution.t -> bool)) option;
      (** [Some (b, on)]: on every skeleton [skel] where [on skel] holds,
          [stage skel] and [b.stage skel] give every candidate the same
          relation, so staging and testing one of the two decides both
          ({!agree}).  A declaration, not checked here; [test_axiom]
          checks it on the sweep's images. *)
}

type t = {
  name : string;
  axioms : axiom list;  (** in checking order *)
  consistent : Execution.t -> bool;
      (** Does the execution satisfy every axiom of the model? *)
}

(** [acyclic ?witness ?agrees name stage]: [stage]'s relation is
    acyclic. *)
val acyclic :
  ?witness:(Execution.t -> Relalg.Rel.t) ->
  ?agrees:axiom * (Execution.t -> bool) ->
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

(** [agree m m' skel]: do [m] and [m'] decide every candidate sharing
    [skel]'s skeleton alike, first violated axiom included?  True when
    their axiom lists pair up position by position, each pair physically
    equal or declared by one of them to agree ([agrees]) on [skel]. *)
val agree : t -> t -> Execution.t -> bool

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
