(** A reusable Domain-based work pool for embarrassingly parallel sweeps.

    The refinement checker's workloads (corpus × scheme sweeps, per-fence
    minimality deletions, figure cells, litmus files) are lists of small
    independent pure tasks.  A pool owns worker domains (the caller is
    the remaining worker) that steal {e chunks} — contiguous (start,
    len) slices of the task array — from a shared atomic counter, so the
    scheduling cost is amortised over a chunk rather than paid per task,
    and results land in an index-addressed array:

    - {b deterministic ordering}: [map] returns results in input order,
      whatever interleaving the domains ran with;
    - {b fault isolation}: a task that raises yields a typed per-task
      {!fault} carrying the original exception and its backtrace instead
      of tearing down the whole sweep (the pool-level analogue of
      [Core.Fault]'s per-thread trap states);
    - {b nesting safety}: a [map] issued from inside a pool task (or
      reentrantly from the same domain) degrades to the sequential path
      rather than deadlocking, so parallel consumers can freely call
      other parallel consumers;
    - {b core-aware sizing}: worker domains are capped at
      [Domain.recommended_domain_count () - 1] whatever [jobs] asks
      for, because on OCaml 5 every live domain joins each
      stop-the-world minor collection and surplus domains slow
      allocation-heavy tasks down even while parked.

    Pools are cheap to keep around; create one per process and reuse
    it across sweeps and figures. *)

type t

(** A captured task failure: [index] is the position of the failing task
    in the input list, [exn] the original exception, [backtrace] its
    (possibly empty) captured backtrace. *)
type fault = { index : int; exn : exn; backtrace : string }

exception Task_failed of fault

(** Per-chunk accounting from the last parallel batch: which domain ran
    the chunk, the task-index slice it covered and its wall-clock
    duration.  This is what makes a speedup (or the lack of one)
    diagnosable from the perf/ checker's pool metrics alone. *)
type chunk_stat = { c_domain : int; c_start : int; c_len : int; c_us : float }

(** [create ~jobs ()] builds a pool of requested parallelism [jobs]
    (defaults to [Domain.recommended_domain_count ()]).  At most
    [min jobs (Domain.recommended_domain_count ()) - 1] worker domains
    are actually spawned — the calling domain always drains too, and
    spawning past the core count only adds GC-synchronisation stalls.
    [jobs <= 1] yields a sequential pool that runs every task on the
    caller.  [force_spawn] disables the core cap (tests that need real
    cross-domain traffic on small machines). *)
val create : ?jobs:int -> ?force_spawn:bool -> unit -> t

(** The requested parallelism (the [-j] figure), not the spawn count. *)
val jobs : t -> int

(** Worker domains actually spawned (see {!create}); the pool drains
    with [workers_spawned t + 1] domains. *)
val workers_spawned : t -> int

(** Chunk accounting for the most recent parallel batch ran by this
    pool ([[]] before the first one, or when every batch degraded to
    the sequential path). *)
val batch_stats : t -> chunk_stat list

(** Join the worker domains.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [map pool f xs] applies [f] to every element of [xs], in parallel,
    returning per-task results in input order.  Never raises for a
    failing task.  Nor does it hang when the pool's own bookkeeping
    around a chunk raises in some domain: that domain survives, and
    every task left without a result fails with a {!fault} carrying the
    bookkeeping's exception. *)
val map : t -> ('a -> 'b) -> 'a list -> ('b, fault) result list

(** Like {!map} but re-raises (at the call site) the original exception
    of the lowest-index faulty task, mirroring what the sequential
    [List.map] would have raised first. *)
val map_exn : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_list ?pool f xs] is [List.map f xs] when [pool] is [None] and
    [map_exn pool f xs] otherwise — the one-liner consumers use to make
    parallelism opt-in without duplicating the sequential path. *)
val map_list : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list

(** [with_pool ?jobs f] runs [f] with a fresh pool and always shuts it
    down. *)
val with_pool : ?jobs:int -> ?force_spawn:bool -> (t -> 'a) -> 'a
