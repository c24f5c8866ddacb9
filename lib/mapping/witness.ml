module En = Litmus.Enumerate
module X = Axiom.Execution
open Litmus.Ast

type t = {
  behaviour : En.behaviour;
  target : X.t;
  forbidden : X.t option;
  violations : Axiom.Explain.verdict list;
  nearest : (X.t * En.behaviour) option;
}

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

(* How far apart two behaviours are: the number of bindings (memory or
   register) present in one but not the other. *)
let distance (a : En.behaviour) (b : En.behaviour) =
  let sym xs ys =
    let missing xs ys = List.filter (fun x -> not (List.mem x ys)) xs in
    List.length (missing xs ys) + List.length (missing ys xs)
  in
  sym a.En.mem b.En.mem + sym a.En.regs b.En.regs

let behaviour_of_candidate (x, regs) = { En.mem = X.behaviour x; regs }

(* An inconsistent source candidate exhibiting [b] — the forbidden
   execution herd would draw.  Exact behaviour match preferred; if the
   mapping renamed a register binding, fall back to the closest
   inconsistent candidate. *)
let find_forbidden (m : Axiom.Model.t) src b =
  let rejected =
    List.filter
      (fun (x, _) -> not (m.Axiom.Model.consistent x))
      (En.candidates src)
  in
  let scored =
    List.map (fun c -> (distance b (behaviour_of_candidate c), fst c)) rejected
  in
  match List.sort (fun (d, _) (d', _) -> compare d d') scored with
  | (_, x) :: _ -> Some x
  | [] -> None

let nearest_consistent (m : Axiom.Model.t) src b =
  let scored =
    List.map
      (fun (x, bx) -> (distance b bx, (x, bx)))
      (En.consistent_executions m src)
  in
  match List.sort (fun (d, _) (d', _) -> compare d d') scored with
  | (_, xb) :: _ -> Some xb
  | [] -> None

let capture ?(max_witnesses = 3) ~src_model ~tgt_model ~src ~tgt
    (r : Check.report) =
  if r.Check.ok then []
  else
    let extra =
      List.filteri (fun i _ -> i < max_witnesses) r.Check.extra
    in
    let tgt_execs = En.consistent_executions tgt_model tgt in
    List.filter_map
      (fun b ->
        match
          List.find_opt
            (fun (_, bx) -> En.behaviour_compare b bx = 0)
            tgt_execs
        with
        | None -> None
        | Some (target, _) ->
            let forbidden = find_forbidden src_model src b in
            let violations =
              match forbidden with
              | Some x -> Axiom.Explain.check_all src_model x
              | None -> []
            in
            Some
              {
                behaviour = b;
                target;
                forbidden;
                violations;
                nearest = nearest_consistent src_model src b;
              })
      extra

(* ------------------------------------------------------------------ *)
(* Greedy shrinker                                                     *)

let rec count_instrs = function
  | [] -> 0
  | If { then_; else_; _ } :: rest ->
      1 + count_instrs then_ + count_instrs else_ + count_instrs rest
  | _ :: rest -> 1 + count_instrs rest

let instruction_count (p : prog) =
  List.fold_left (fun acc (t : thread) -> acc + count_instrs t.code) 0 p.threads

(* Delete the n-th instruction in flattening order (threads in order,
   [If] counts itself before its branches; deleting an [If] deletes the
   whole subtree). *)
let delete_instr (p : prog) n =
  let k = ref 0 in
  let rec del instrs =
    List.concat_map
      (fun i ->
        let here = !k in
        incr k;
        match i with
        | If { cond; then_; else_ } ->
            if here = n then begin
              (* skip the subtree's counter slots *)
              k := !k + count_instrs then_ + count_instrs else_;
              []
            end
            else
              let then_ = del then_ in
              let else_ = del else_ in
              [ If { cond; then_; else_ } ]
        | i -> if here = n then [] else [ i ])
      instrs
  in
  let threads =
    List.rev
      (List.fold_left
         (fun acc (t : thread) -> { t with code = del t.code } :: acc)
         [] p.threads)
  in
  { p with threads }

let still_fails ~scheme ~src_model ~tgt_model src =
  not (Check.refines ~src_model ~tgt_model ~src ~tgt:(scheme src)).Check.ok

let shrink ~scheme ~src_model ~tgt_model src =
  if not (still_fails ~scheme ~src_model ~tgt_model src) then src
  else begin
    let current = ref { src with name = src.name ^ "-shrunk" } in
    let progress = ref true in
    while !progress do
      progress := false;
      let n = instruction_count !current in
      let i = ref 0 in
      while (not !progress) && !i < n do
        let candidate = delete_instr !current !i in
        if
          instruction_count candidate < instruction_count !current
          && still_fails ~scheme ~src_model ~tgt_model candidate
        then begin
          current := candidate;
          progress := true
        end;
        incr i
      done
    done;
    !current
  end
