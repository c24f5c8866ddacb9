(** Exhaustive enumeration of the consistent executions of a litmus
    program under a memory model.

    The generator follows the standard candidate-execution recipe:

    + each thread is run symbolically with a read-value oracle drawing
      from the program's value universe (constants ∪ initial values),
      resolving control flow and recording events, RMW pairing and
      data/control dependencies;
    + reads-from is enumerated over value-compatible writes;
    + coherence is enumerated as the linear extensions of the per-location
      write sets (initialisation writes first);
    + candidates are filtered by the model's consistency predicate.

    Exact for loop-free litmus-sized programs.

    Event ids are dense: the initialisation writes take [0 .. n-1], then
    each thread, in ascending tid order, a contiguous range sized by a
    static bound on its events (load, store and fence 1, CAS 2, [If] its
    larger branch), so ids order events by (tid, po).  Relations hold
    ids 0–62 only ({!Relalg.Rel}): every enumerating function raises
    [Invalid_argument] naming the program when its bound exceeds 63
    events, before enumerating anything. *)

(** A behaviour: final memory (co-maximal writes) plus the final local
    register valuation of each thread, both canonically sorted. *)
type behaviour = {
  mem : (string * int) list;
  regs : ((int * string) * int) list;
}

val behaviour_compare : behaviour -> behaviour -> int
val pp_behaviour : Format.formatter -> behaviour -> unit

(** The value universe used by the read oracle. *)
val universe : Ast.prog -> int list

(** All candidate executions (before model filtering), paired with the
    thread-local register valuations of the runs that produced them. *)
val candidates : Ast.prog -> (Axiom.Execution.t * ((int * string) * int) list) list

(** Consistent executions under a model.

    Unlike {!candidates}, the consistent-execution path enumerates with
    per-location pruning: (rf, co) choices that violate per-location
    coherence or RMW atomicity are rejected before the cross-location
    product is taken.  The survivors then satisfy
    {!Axiom.Model.coherence} and {!Axiom.Model.atomicity}, and each is
    checked with the model's other axioms alone, staged once per
    combination ({!Axiom.Model.prepare_all}).  Every model lists both
    pruned axioms ({!Axiom.Model.make} checks it), so this produces
    exactly the executions the unpruned path would keep, in enumeration
    order. *)
val executions : Axiom.Model.t -> Ast.prog -> Axiom.Execution.t list

(** Like {!executions}, with each execution's full behaviour (final
    memory plus register valuations) — the witness-capture entry point:
    a concrete execution exhibiting a given behaviour is found by
    filtering this list. *)
val consistent_executions :
  Axiom.Model.t -> Ast.prog -> (Axiom.Execution.t * behaviour) list

(** Behaviours via the {e unpruned} candidate product, calling
    [on_reject] on every candidate the model's consistency predicate
    rejects (including those the pruned path would discard before
    assembly).  Returns exactly what {!behaviours} returns, but bypasses
    the cache and the per-location pruning — the opt-in axiom-coverage
    probe, not a fast path.  It runs the same pass as
    {!behaviours_probed_many}. *)
val behaviours_probed :
  on_reject:(Axiom.Execution.t -> unit) ->
  Axiom.Model.t ->
  Ast.prog ->
  behaviour list

(** [behaviours_probed_many models p] is, for each model [m],
    [(m.name, (bs, r))] where [bs = behaviours_probed m p] and [r]
    pairs each of [m.axioms], by name and in order, with the number of
    candidates [m] rejects first on that axiom (the axiom
    {!Axiom.Explain.check} reports).  One pass over the unpruned
    candidate product serves every model: each distinct axiom of the
    models ({!Axiom.Model.coherence} and {!Axiom.Model.atomicity} once
    for all) is staged once per combination and tested at most once
    per candidate, and the classes come from those staged checks, with
    no per-candidate diagnosis.  Models are not deduplicated. *)
val behaviours_probed_many :
  Axiom.Model.t list -> Ast.prog -> (string * (behaviour list * (string * int) list)) list

(** The set of behaviours of the consistent executions, deduplicated and
    sorted.  Uses the pruned enumeration (see {!executions}) and a
    two-level domain-safe cache keyed by (model name, program AST): a
    lock-free domain-private table in front of a shared mutex-guarded
    one, with fresh entries merged into the shared table at pool batch
    boundaries ([Parallel.Pool.on_join]).  Within one run, the same
    (model, program) pair is enumerated once per domain at worst, once
    overall in the common case.  Distinct models must therefore carry
    distinct names (they do). *)
val behaviours : Axiom.Model.t -> Ast.prog -> behaviour list

(** [behaviours_many models p] is
    [List.map (fun m -> (m.name, behaviours m p)) models] computed with
    a {e single} pruned enumeration for all cache-missing models: the
    pruning only uses properties common to every model, so the survivor
    set is shared and each model adds one cheap consistency filter.
    Duplicate model names are served once.  This is the batch
    refinement planner's enumeration primitive. *)
val behaviours_many :
  Axiom.Model.t list -> Ast.prog -> (string * behaviour list) list

(** [(hits, misses)] of the behaviours cache since start/last clear.
    Hits count local- and shared-table hits alike; misses count
    enumerations (one per model even when served by a shared
    [behaviours_many] survivor pass). *)
val cache_stats : unit -> int * int

(** Empty the behaviours cache and the linear-extension memo
    ({!Relalg.Rel.clear_memo}) — for cold-start benchmarking and
    bounding memory in long-running processes. *)
val clear_caches : unit -> unit

val eval_cond : Ast.cond -> behaviour -> bool

type verdict = {
  ok : bool;
  total_consistent : int;
  witnesses : behaviour list;  (** behaviours satisfying the condition *)
}

(** Check a test's expectation under a model. *)
val check : Axiom.Model.t -> Ast.test -> verdict
