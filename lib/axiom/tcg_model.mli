(** The TCG IR concurrency model proposed by the paper (Figure 6):

    {v
    (GOrd)  ghb = (ord ∪ rfe ∪ coe ∪ fre)⁺ is irreflexive
    ord     = [R];po;[Frr];po;[R] ∪ [R];po;[Frw];po;[W]
            ∪ [R];po;[Frm];po;[R∪W] ∪ [W];po;[Fwr];po;[R]
            ∪ [W];po;[Fww];po;[W] ∪ [W];po;[Fwm];po;[R∪W]
            ∪ [R∪W];po;[Fmr];po;[R] ∪ [R∪W];po;[Fmw];po;[W]
            ∪ [R∪W];po;[Fmm];po;[R∪W]
            ∪ po;[Wsc ∪ dom(rmw)] ∪ [Rsc ∪ codom(rmw)];po
            ∪ po;[Fsc] ∪ [Fsc];po
    v}

    plus the common SC-per-location and atomicity axioms.  TCG [Facq] and
    [Frel] fences generate events but no [ord] edges (they lower to
    nothing on Arm, Figure 7b). *)

val model : Model.t

(** The [ord] relation of Figure 6, exposed for diagnostics. *)
val ord : Execution.t -> Relalg.Rel.t

(** [ghb] before transitive closure (informative cycles). *)
val ghb_base : Execution.t -> Relalg.Rel.t
