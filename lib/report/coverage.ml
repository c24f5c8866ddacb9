type key = { scheme : string; program : string; model : string; axiom : string }

type t = {
  mutable deltas : (key * int) list;
      (* newest first, a key possibly more than once: a sweep merges
         each cell's keys once, so summing waits for [counts] *)
  counters : (string * string, Obs.Metrics.counter) Hashtbl.t;
      (* by (model, axiom): the metric name is built once per pair *)
}

let create () = { deltas = []; counters = Hashtbl.create 16 }

let metric_prefix = "axiom.reject."

let counter_for t model axiom =
  match Hashtbl.find_opt t.counters (model, axiom) with
  | Some c -> c
  | None ->
      let c = Obs.Metrics.counter (metric_prefix ^ model ^ "/" ^ axiom) in
      Hashtbl.add t.counters (model, axiom) c;
      c

(* What the coverage matrix counts: for each candidate execution the
   model rejects, the {e discriminating} axiom — the first violated one
   in checking order, i.e. [Explain.check]'s verdict.  The probe counts
   its rejections by class in that order; the class names are the
   model's [Explain.axiom_names]. *)
let reject_counts (model : Axiom.Model.t) (r : Litmus.Enumerate.rejects) =
  let named =
    match Axiom.Explain.which_of_model model with
    | Some w -> (
        match Axiom.Explain.axiom_names w with
        | [ coherence; own; atomicity ] ->
            [ (coherence, r.coherence); (own, r.own); (atomicity, r.atomicity) ]
        | _ -> assert false (* Explain checks three axioms per model *))
    | None -> [ ("(unknown model)", r.coherence + r.own + r.atomicity) ]
  in
  List.filter (fun (_, n) -> n > 0) named

(* Merge a pre-computed delta (e.g. replayed from a sweep journal, or
   a probed job's rejection counts) into both the matrix and the
   metric counter. *)
let add t key n =
  if n > 0 then begin
    t.deltas <- (key, n) :: t.deltas;
    Obs.Metrics.add (counter_for t key.model key.axiom) n
  end

let counts t =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) t.deltas in
  let rec sum acc = function
    | (k, a) :: (k', b) :: rest when k = k' -> sum acc ((k, a + b) :: rest)
    | d :: rest -> sum (d :: acc) rest
    | [] -> List.rev acc
  in
  sum [] sorted

let axioms_of_model (model : Axiom.Model.t) =
  match Axiom.Explain.which_of_model model with
  | Some w -> Axiom.Explain.axiom_names w
  | None -> []

let blind_spots t models =
  let exercised model axiom =
    List.exists (fun (k, _) -> k.model = model && k.axiom = axiom) t.deltas
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
