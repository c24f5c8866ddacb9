open Relalg

let model =
  Model.make "SC"
    [
      Model.coherence;
      Model.acyclic "sequential consistency (po ∪ rf ∪ co ∪ fr)" (fun skel ->
          let po = skel.Execution.po in
          fun x -> Rel.union_all [ po; x.Execution.rf; x.Execution.co; Execution.fr x ]);
      Model.atomicity;
    ]
