open Relalg

type t = {
  name : string;
  consistent : Execution.t -> bool;
  prepare : Execution.t -> Execution.t -> bool;
}

(* The common axioms over their rf/co-independent parts: po-loc for
   coherence, the RMW pairs for atomicity (trivial without any). *)
let coherent po_loc x =
  Rel.acyclic (Rel.union_all [ po_loc; x.Execution.rf; x.Execution.co; Execution.fr x ])

let atomic rmw x =
  Rel.is_empty rmw
  || Rel.is_empty (Rel.inter rmw (Rel.compose (Execution.fre x) (Execution.coe x)))

let sc_per_loc x = coherent (Execution.po_loc x) x
let atomicity x = atomic (Execution.rmw x) x
let common x = sc_per_loc x && atomicity x

let prepare_coherence skel = coherent (Execution.po_loc skel)
let prepare_atomicity skel = atomic (Execution.rmw skel)

let prepare_common skel =
  let coherent = prepare_coherence skel and atomic = prepare_atomicity skel in
  fun x -> coherent x && atomic x

let make name prepare = { name; prepare; consistent = (fun x -> common x && prepare x x) }
