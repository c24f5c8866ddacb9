(** The x86-TSO axiomatic model (paper §5.2, after Owens et al. and
    Alglave et al.):

    {v
    (GHB)  (implied ∪ ppo ∪ rfe ∪ fr ∪ co)⁺ is irreflexive
    ppo     = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po
    implied = po; [At ∪ F] ∪ [At ∪ F]; po
    At      = dom(rmw) ∪ codom(rmw)
    v}

    between the common coherence and atomicity axioms; GHB's check and
    its witnesses use the relation before the closure. *)

val model : Model.t
