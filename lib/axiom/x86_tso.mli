(** The x86-TSO axiomatic model (paper §5.2, after Owens et al. and
    Alglave et al.):

    {v
    (GHB)  (implied ∪ ppo ∪ rfe ∪ fr ∪ co)⁺ is irreflexive
    ppo     = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po
    implied = po; [At ∪ F] ∪ [At ∪ F]; po
    At      = dom(rmw) ∪ codom(rmw)
    v}

    plus the common SC-per-location and atomicity axioms. *)

val model : Model.t

(** GHB before transitive closure (informative cycles). *)
val ghb_base : Execution.t -> Relalg.Rel.t
