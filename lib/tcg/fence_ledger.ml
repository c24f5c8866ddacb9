type outcome =
  | Emitted
  | Kept
  | Merged of { into : Op.origin; result : Axiom.Event.fence }
  | Dropped
  | Strengthened of { from : Axiom.Event.fence }

type entry = {
  pass : string;
  kind : Axiom.Event.fence;
  origin : Op.origin;
  outcome : outcome;
}

type t = { mutable entries : entry list }

let create () = { entries = [] }
let entries t = List.rev t.entries

let outcome_name = function
  | Emitted -> "emitted"
  | Kept -> "kept"
  | Merged _ -> "merged"
  | Dropped -> "dropped"
  | Strengthened _ -> "strengthened"

(* fence.<kind>.<outcome> counters, registered on first use.  Recording
   happens on the (cold) translation path, so a per-record name lookup
   is acceptable; Metrics registration is idempotent by name. *)
let counter_for kind outcome =
  Obs.Metrics.counter
    ("fence." ^ Axiom.Event.fence_name kind ^ "." ^ outcome_name outcome)

let record t ~pass ~kind ~origin outcome =
  t.entries <- { pass; kind; origin; outcome } :: t.entries;
  Obs.Metrics.add (counter_for kind outcome) 1

let count t outcome_name' =
  List.length
    (List.filter (fun e -> outcome_name e.outcome = outcome_name') t.entries)

let pp_entry ppf e =
  let pp_origin ppf (o : Op.origin) =
    if Int64.equal o.opc (-1L) then Fmt.pf ppf "rule %s" o.rule
    else Fmt.pf ppf "guest 0x%Lx (%s)" o.opc o.rule
  in
  match e.outcome with
  | Emitted ->
      Fmt.pf ppf "%-5s emitted by %s from %a"
        (Axiom.Event.fence_name e.kind)
        e.pass pp_origin e.origin
  | Kept ->
      Fmt.pf ppf "%-5s kept, from %a" (Axiom.Event.fence_name e.kind) pp_origin
        e.origin
  | Merged { into; result } ->
      Fmt.pf ppf "%-5s from %a merged by %s into %s at %a"
        (Axiom.Event.fence_name e.kind)
        pp_origin e.origin e.pass
        (Axiom.Event.fence_name result)
        pp_origin into
  | Dropped ->
      Fmt.pf ppf "%-5s from %a dropped by %s"
        (Axiom.Event.fence_name e.kind)
        pp_origin e.origin e.pass
  | Strengthened { from } ->
      Fmt.pf ppf "%-5s strengthened from %s by %s, from %a"
        (Axiom.Event.fence_name e.kind)
        (Axiom.Event.fence_name from)
        e.pass pp_origin e.origin

let pp ppf t =
  List.iter (fun e -> Fmt.pf ppf "  %a@." pp_entry e) (entries t)
