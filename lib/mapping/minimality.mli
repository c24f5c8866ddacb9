(** Executable form of the paper's mapping-minimality claims (§5.4,
    Figures 8 and 9): "these mapping schemes are precise: each placed
    fence is necessary in some program".

    For a mapped program, every fence occurrence is deleted in turn and
    Theorem-1 refinement is re-checked; a deletion that re-admits a
    forbidden behaviour proves that fence necessary. *)

(** Number of fence instructions in a program (flattened, including
    branches of [If]). *)
val fence_count : Litmus.Ast.prog -> int

(** [delete_fence p n] removes the [n]-th fence (0-based, in flattening
    order). *)
val delete_fence : Litmus.Ast.prog -> int -> Litmus.Ast.prog

type site = { index : int; fence : Axiom.Event.fence; necessary : bool }

(** For each fence of the mapped program [f src], is it necessary for
    [refines ~src ~tgt]?  Every fence-deletion variant is an image of
    one {!Litmus.Enumerate.pass} over [src]. *)
val necessary_fences :
  (Litmus.Ast.prog -> Litmus.Ast.prog) ->
  src_model:Axiom.Model.t ->
  tgt_model:Axiom.Model.t ->
  Litmus.Ast.prog ->
  site list

val pp_site : Format.formatter -> site -> unit
