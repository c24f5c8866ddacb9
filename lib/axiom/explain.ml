open Relalg

type verdict = Consistent | Violates of { axiom : string; cycle : int list }

(* [Violates] with the axiom's witness in [x], if it is violated: a
   cycle of its relation, or the first pair of a relation that must be
   empty. *)
let violates (a : Model.axiom) x =
  let rel = a.witness x in
  let cycle =
    match a.shape with
    | Model.Acyclic -> Rel.find_cycle rel
    | Model.Empty -> ( match Rel.to_list rel with (r, w) :: _ -> Some [ r; w ] | [] -> None)
  in
  Option.map (fun cycle -> Violates { axiom = a.name; cycle }) cycle

let check (m : Model.t) x =
  match List.find_map (fun a -> violates a x) m.axioms with Some v -> v | None -> Consistent

let check_all (m : Model.t) x = List.filter_map (fun a -> violates a x) m.axioms

(* The most specific base relation connecting two consecutive cycle
   events.  Derived ordering relations (ppo, implied, lob, ord, ...) are
   compositions along po, so any cycle edge not in rmw/rf/co/fr is a po
   edge — except the atomicity "cycle" [r; w], whose closing w→r edge
   closes the fre;coe detour r→w around the RMW pair. *)
let edge_rel x a b =
  let candidates =
    [
      ("rmw", Execution.rmw x);
      ("rf", x.Execution.rf);
      ("co", x.Execution.co);
      ("fr", Execution.fr x);
      ("po", x.Execution.po);
    ]
  in
  match List.find_opt (fun (_, r) -> Rel.mem a b r) candidates with
  | Some (name, _) -> name
  | None ->
      if Rel.mem b a (Rel.compose (Execution.fre x) (Execution.coe x)) then
        "fr;co"
      else "?"

let pp_verdict x ppf = function
  | Consistent -> Fmt.string ppf "consistent"
  | Violates { axiom; cycle } -> (
      Fmt.pf ppf "violates %s via cycle:@," axiom;
      match cycle with
      | [] -> ()
      | first :: _ ->
          let rec go = function
            | [] -> ()
            | [ last ] ->
                (* The cycle is last→first closed. *)
                Fmt.pf ppf "    %a@,  --%s--> (back to %d)@," Event.pp
                  (Execution.find x last) (edge_rel x last first) first
            | a :: (b :: _ as rest) ->
                Fmt.pf ppf "    %a@,  --%s-->@," Event.pp (Execution.find x a)
                  (edge_rel x a b);
                go rest
          in
          go cycle)
