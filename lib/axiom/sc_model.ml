open Relalg

let prepare skel =
  let po = skel.Execution.po in
  fun x ->
    Rel.acyclic (Rel.union_all [ po; x.Execution.rf; x.Execution.co; Execution.fr x ])

let model = Model.make "SC" prepare
