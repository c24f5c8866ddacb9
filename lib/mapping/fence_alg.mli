(** The lattice of TCG IR fences.

    A TCG fence is characterised by the set of ordered access pairs it
    enforces ([rr], [rw], [wr], [ww]), plus acquire/release markers and
    the SC flag of [Fsc].  Fence merging (paper §5.4 and §6.1) is the
    join in this lattice:

    {v  Frm · Fww  ─strengthen→  Fsc · Fsc  ─merge→  Fsc  v}

    (the paper strengthens to [Fsc]; the precise join of [Frm] and [Fww]
    is [Fmw] ∪ {rr} = a fence ordering rr, rw and ww, for which the
    minimal TCG kind is [Fmm]; [merge] returns the weakest TCG fence at
    least as strong as the join). *)

type t = {
  rr : bool;
  rw : bool;
  wr : bool;
  ww : bool;
  acq : bool;
  rel : bool;
  sc : bool;
}

val join : t -> t -> t

(** [merge f1 f2] is the single TCG fence equivalent to the adjacent
    pair [f1; f2]. *)
val merge : Axiom.Event.fence -> Axiom.Event.fence -> Axiom.Event.fence

(** [subsumes f1 f2]: an [f1] fence enforces at least the orderings of
    [f2] (so an adjacent [f2] is redundant). *)
val subsumes : Axiom.Event.fence -> Axiom.Event.fence -> bool
