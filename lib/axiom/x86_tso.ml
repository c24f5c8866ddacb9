open Relalg

(* ppo ∪ implied: the part of GHB that po alone decides. *)
let ordered x =
  let po = x.Execution.po in
  let r = Execution.reads x and w = Execution.writes x in
  (* ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po *)
  let ppo = Rel.union (Rel.restrict w po w) (Rel.restrict r po (Iset.union r w)) in
  let rmw = Execution.rmw x in
  let at = Iset.union (Rel.domain rmw) (Rel.codomain rmw) in
  let at_f = Iset.union at (Execution.fences x Event.F_mfence) in
  let implied =
    Rel.union (Rel.compose po (Rel.id at_f)) (Rel.compose (Rel.id at_f) po)
  in
  Rel.union implied ppo

let base ordered x =
  Rel.union_all [ ordered; Execution.rfe x; Execution.fr x; x.Execution.co ]

let ghb_base x = base (ordered x) x

let prepare skel =
  let o = ordered skel in
  fun x -> Rel.acyclic (base o x)

let model = Model.make "x86-TSO" prepare
