type key = { scheme : string; program : string; model : string; axiom : string }

type t = {
  table : (key, int ref) Hashtbl.t;
  counters : (string, Obs.Metrics.counter) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64; counters = Hashtbl.create 16 }

let metric_prefix = "axiom.reject."

let counter_for t model axiom =
  let name = metric_prefix ^ model ^ "/" ^ axiom in
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = Obs.Metrics.counter name in
      Hashtbl.add t.counters name c;
      c

(* What the coverage matrix counts: for each candidate execution the
   model rejects, the {e discriminating} axiom — the first violated one
   in checking order, i.e. [Explain.check]'s verdict.  Executions the
   predicate rejects but no decomposed axiom explains (not the case for
   any lib/axiom model) land in "(undiagnosed)".  The model's axiom
   decomposition is resolved once, when [classify model] is applied. *)
let classify (model : Axiom.Model.t) =
  match Axiom.Explain.which_of_model model with
  | None -> fun _ -> "(unknown model)"
  | Some w -> (
      fun x ->
        match Axiom.Explain.check w x with
        | Axiom.Explain.Violates { axiom; _ } -> axiom
        | Axiom.Explain.Consistent -> "(undiagnosed)")

let record ?(quiet = false) t ~scheme ~program ~(model : Axiom.Model.t) x =
  let axiom = classify model x in
  let model = model.Axiom.Model.name in
  let key = { scheme; program; model; axiom } in
  (match Hashtbl.find_opt t.table key with
  | Some r -> incr r
  | None -> Hashtbl.add t.table key (ref 1));
  if not quiet then Obs.Metrics.incr (counter_for t model axiom)

(* Merge a pre-computed delta (e.g. replayed from a sweep journal, or
   a per-attempt scratch table) into both the matrix and the metric
   counter, as if [record] had fired [n] times. *)
let add t key n =
  if n > 0 then begin
    (match Hashtbl.find_opt t.table key with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.table key (ref n));
    Obs.Metrics.add (counter_for t key.model key.axiom) n
  end

let counts t =
  List.sort compare
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.table [])

let axioms_of_model (model : Axiom.Model.t) =
  match Axiom.Explain.which_of_model model with
  | Some w -> Axiom.Explain.axiom_names w
  | None -> []

let blind_spots t models =
  let exercised model axiom =
    Hashtbl.fold
      (fun k r acc -> acc || (!r > 0 && k.model = model && k.axiom = axiom))
      t.table false
  in
  List.concat_map
    (fun (m : Axiom.Model.t) ->
      List.filter_map
        (fun axiom ->
          if exercised m.Axiom.Model.name axiom then None
          else Some (m.Axiom.Model.name, axiom))
        (axioms_of_model m))
    (List.sort_uniq
       (fun (a : Axiom.Model.t) b ->
         compare a.Axiom.Model.name b.Axiom.Model.name)
       models)
