(** Axiom-coverage accounting: how often is each axiom of each model the
    {e discriminating} rejection reason (the first violated axiom, in
    checking order) across a refinement sweep's candidate enumerations.

    An axiom that is never the discriminating reason anywhere in the
    corpus is a blind spot: the corpus cannot distinguish a model with
    that axiom from one without it.

    Counts accumulate both in an in-process table (always, so the
    report's matrix works standalone) and in {!Obs.Metrics} counters
    named [axiom.reject.<model>/<axiom>] — the latter are no-ops while
    metrics are disabled, so the off-by-default probe contract of
    lib/obs carries over. *)

type key = { scheme : string; program : string; model : string; axiom : string }
type t

val create : unit -> t

(** Name prefix of the {!Obs.Metrics} counters
    ([axiom.reject.<model>/<axiom>]). *)
val metric_prefix : string

(** [reject_counts model r] names the rejection classes the coverage
    probe ({!Litmus.Enumerate.behaviours_probed_many}) counted for
    [model] by [model]'s axioms ({!Axiom.Explain.axiom_names}), dropping
    zero counts: the {e discriminating} axiom of each rejected
    candidate, the first one {!Axiom.Explain.check} finds violated.  A
    model outside lib/axiom has every rejection under
    ["(unknown model)"]. *)
val reject_counts : Axiom.Model.t -> Litmus.Enumerate.rejects -> (string * int) list

(** [add t key n] merges a pre-computed delta — replayed from a sweep
    journal, or a probed job's rejection counts — into both the matrix
    and the [axiom.reject.*] counter.  No-op for [n <= 0]. *)
val add : t -> key -> int -> unit

(** All cells with nonzero counts, key-sorted. *)
val counts : t -> (key * int) list

(** The axiom row space of a model ([[]] for models
    {!Axiom.Explain.which_of_model} cannot resolve). *)
val axioms_of_model : Axiom.Model.t -> string list

(** [(model, axiom)] pairs never recorded as discriminating, over the
    given models (deduplicated by name). *)
val blind_spots : t -> Axiom.Model.t list -> (string * string) list
