(** Fence merging (paper §6.1): adjacent fences — fences with no
    intermediate memory access — are merged into the single weakest TCG
    fence that dominates both, placed where the earliest fence was:

    {v  a = X;  Frm; Fww;  Y = 1   ↝   a = X;  F(rr∪rw∪ww);  Y = 1  v}

    Pure register ops between two fences do not block merging.  Also
    drops [Facq]/[Frel] fences, which lower to nothing on Arm
    (Figure 7b).

    When [ledger] is given, every absorbed fence is recorded as
    [Merged] (attributed to its own origin), survivors whose kind grew
    under the lattice join as [Strengthened], and eliminated
    [Facq]/[Frel] results as [Dropped]. *)

(** Rewrite the working copy in place. *)
val rewrite : ?ledger:Fence_ledger.t -> Work.t -> unit

(** Count of [Mb] ops, for the statistics the evaluation reports. *)
val count : Op.t array -> int
