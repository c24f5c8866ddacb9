(** Exhaustive enumeration of the consistent executions of a litmus
    program under a memory model.

    The generator follows the standard candidate-execution recipe:

    + each thread is run symbolically with a read-value oracle drawing
      from the program's value universe (constants ∪ initial values,
      closed under each fetch-and-add's operand and every value a
      write computes from registers),
      resolving control flow and recording events, RMW pairing and
      data/control dependencies;
    + reads-from is enumerated over value-compatible writes;
    + coherence is enumerated as the linear extensions of the per-location
      write sets (initialisation writes first);
    + candidates are filtered by the model's consistency predicate;
    + one pass serves a source and all of its zipping images (below).

    Exact for loop-free litmus-sized programs.

    Event ids are dense: the initialisation writes take [0 .. n-1], then
    each thread, in ascending tid order, a contiguous range sized by a
    static bound on its events (load, store and fence 1, RMW 2, [If] its
    larger branch), so ids order events by (tid, po).  Relations hold
    ids 0–62 only ({!Relalg.Rel}): every enumerating function raises
    [Invalid_argument] naming the program when its bound exceeds 63
    events, before enumerating anything (an image past the bound does
    not zip, and its own pass raises). *)

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

(** {1 One candidate pass per source}

    A pass enumerates a {e source} program once for a list of
    {e images}, target programs each with its models.  An image zips
    when its code is the source's with fences added or dropped,
    annotations and RMW flavours aside, from the same initial state,
    within the event bound: each source run then has one image run with
    the same accesses in order, so the source's runs, feasible combos
    and per-location prune serve the image, whose rf and co are the
    source's mapped, and only its models are staged on its own
    skeleton.  The image run is derived from the source run, not
    replayed: a walk of the image's code along the source run's branch
    decisions relabels each source access with the image's ord or RMW
    flavour, gives each fence a fresh id, and maps the dependencies and
    RMW pairs onto the image's ids.  An image that does not zip (a
    Figure-10 elimination, an image past the bound) is enumerated
    alone.  A program is an image of itself. *)

(** A target program and the models it is checked under. *)
type image = Ast.prog * Axiom.Model.t list

(** [zips src img]: does [img] zip with [src]? *)
val zips : Ast.prog -> Ast.prog -> bool

(** [fold ~probe src images f acc] calls [f acc i k x regs v] on every
    candidate of every zipping image (the others are skipped): image
    [i], source candidate number [k] (shared by its images), the
    image's execution (built when forced) and registers, and [v.(j)]
    the position of the first axiom of the [j]th model [x] violates, or
    -1.  Probed, the candidates are the full rf × co product, reads' rf
    choices outermost; otherwise the survivors of the per-location
    coherence and atomicity prune, which satisfy both, so only the
    models' other axioms are tested.

    Staging is per {e shape}: combos whose runs differ only in the
    values they read and write share one skeleton, since no axiom
    reads a value.  Per shape, the per-location axioms are staged on
    the source skeleton once, and each image's skeleton, its index and
    its models are staged once each, except that a model which
    {!Axiom.Model.agree}s there with an earlier one of the image copies
    that one's verdicts (the two Arm-Cats variants, on a skeleton
    without an acquire-release amo pair).  A combo's candidates are
    checked on its shape's skeletons; [x] is still the combo's own
    execution: the shape's relations over the combo's events, values
    included. *)
val fold :
  probe:bool ->
  Ast.prog ->
  image list ->
  ('a -> int -> int -> Axiom.Execution.t Lazy.t -> ((int * string) * int) list -> int array -> 'a) ->
  'a ->
  'a

(** [pass ~probe src images] is, per image, per model,
    [(m.name, (bs, r))]: the image's sorted behaviours under [m] and,
    when [probe], each of [m.axioms] by name with the number of
    candidates [m] rejects first on it ({!Axiom.Explain.check}'s
    axiom), else [r = []] — exactly what each image alone gives.  The
    zipping images share one pass, the others take one each; each
    image's zip is decided once.  Nothing outlives the call: the memos,
    of co orders by write set, of derived image runs and of staged
    shapes, are the pass's own. *)
val pass :
  probe:bool ->
  Ast.prog ->
  image list ->
  (string * (behaviour list * (string * int) list)) list list

(** All candidate executions (before model filtering), paired with the
    thread-local register valuations of the runs that produced them. *)
val candidates : Ast.prog -> (Axiom.Execution.t * ((int * string) * int) list) list

(** Consistent executions under a model, in enumeration order: the
    pruned pass's survivors that pass the model's other axioms. *)
val executions : Axiom.Model.t -> Ast.prog -> Axiom.Execution.t list

(** Like {!executions}, with each execution's full behaviour — the
    witness-capture entry point. *)
val consistent_executions :
  Axiom.Model.t -> Ast.prog -> (Axiom.Execution.t * behaviour) list

(** {!behaviours} via the unpruned probed pass, calling [on_reject] on
    every candidate the model rejects — the opt-in axiom-coverage
    probe, not a fast path. *)
val behaviours_probed :
  on_reject:(Axiom.Execution.t -> unit) ->
  Axiom.Model.t ->
  Ast.prog ->
  behaviour list

(** [behaviours_probed_many models p] is the one image of
    [pass ~probe:true p [ (p, models) ]]; models are not deduplicated. *)
val behaviours_probed_many :
  Axiom.Model.t list -> Ast.prog -> (string * (behaviour list * (string * int) list)) list

(** The sorted behaviours of the consistent executions: the one image
    of [pass ~probe:false p [ (p, [ m ]) ]]. *)
val behaviours : Axiom.Model.t -> Ast.prog -> behaviour list

(** [behaviours_many models p] is
    [List.map (fun m -> (m.name, behaviours m p)) models] from one
    pruned pass.  Duplicate model names are served once. *)
val behaviours_many :
  Axiom.Model.t list -> Ast.prog -> (string * behaviour list) list

(** [(0, passes)]: the number of {!pass}es since start or the last
    {!clear_caches}, however many images and models each serves.  Named
    for the behaviours cache that an earlier version kept; the name and
    type stay for [perf/checker.ml] until its next edit. *)
val cache_stats : unit -> int * int

(** Reset the {!cache_stats} pass counter; kept, like it, for
    [perf/checker.ml]. *)
val clear_caches : unit -> unit

val eval_cond : Ast.cond -> behaviour -> bool

type verdict = {
  ok : bool;
  total_consistent : int;
  witnesses : behaviour list;  (** behaviours satisfying the condition *)
}

(** Check a test's expectation under a model. *)
val check : Axiom.Model.t -> Ast.test -> verdict
