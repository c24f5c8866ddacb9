(** Constant propagation and folding, including false-dependency
    elimination (paper §6.1: [X = a*0 ↝ X = 0] is trivially correct in
    the TCG IR model, which orders nothing by dependencies).

    The analysis is forward over straight-line code; constant knowledge
    is discarded at labels (join points). *)

(** Rewrite the working copy in place. *)
val rewrite : Work.t -> unit
