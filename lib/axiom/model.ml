open Relalg

type shape = Acyclic | Empty

type axiom = {
  name : string;
  shape : shape;
  stage : Execution.t -> Execution.t -> Rel.t;
  witness : Execution.t -> Rel.t;
  agrees : (axiom * (Execution.t -> bool)) option;
}

type t = { name : string; axioms : axiom list; consistent : Execution.t -> bool }

let acyclic ?witness ?agrees name stage =
  let witness = match witness with Some w -> w | None -> fun x -> stage x x in
  { name; shape = Acyclic; stage; witness; agrees }

let empty name stage = { name; shape = Empty; stage; witness = (fun x -> stage x x); agrees = None }

let prepare (a : axiom) skel =
  let rel = a.stage skel in
  match a.shape with
  | Acyclic -> fun x -> Rel.acyclic (rel x)
  | Empty -> fun x -> Rel.is_empty (rel x)

let coherence =
  acyclic "sc-per-loc (coherence)" (fun skel ->
      let po_loc = Execution.po_loc skel in
      fun x -> Rel.union_all [ po_loc; x.Execution.rf; x.Execution.co; Execution.fr x ])

(* Trivial without RMW pairs, and then fre;coe is never built. *)
let atomicity =
  empty "atomicity" (fun skel ->
      let rmw = Execution.rmw skel in
      if Rel.is_empty rmw then fun _ -> Rel.empty
      else fun x -> Rel.inter rmw (Rel.compose (Execution.fre x) (Execution.coe x)))

let declared (a : axiom) (b : axiom) skel =
  match a.agrees with Some (b', on) -> b' == b && on skel | None -> false

let agree (m : t) (m' : t) skel =
  List.equal (fun a b -> a == b || declared a b skel || declared b a skel) m.axioms m'.axioms

let make name axioms =
  List.iter
    (fun (a : axiom) ->
      if not (List.memq a axioms) then invalid_arg ("Model.make: " ^ name ^ " lacks " ^ a.name))
    [ coherence; atomicity ];
  { name; axioms; consistent = (fun x -> List.for_all (fun a -> prepare a x x) axioms) }
