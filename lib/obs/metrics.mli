(** Metrics registry: named atomic-free counters, gauges and log2-bucket
    histograms, sharded per Domain and merged on {!snapshot}.

    Counters and histograms write to a domain-local shard (no locks, no
    atomics on the hot path); {!snapshot} sums every shard, so under a
    Domain pool the merged totals equal what a sequential run would
    have counted ([test/test_obs.ml] pins this down).  Gauges are
    process-global last-writer-wins cells.

    The registry is process-global and off by default: {!add},
    {!observe} and {!set} are a single atomic load and a branch while
    disabled, so instrumented hot paths pay (almost) nothing.
    Registration ({!counter} / {!gauge} / {!histogram}) is independent
    of the enabled flag and idempotent by name; register metrics before
    hammering them from many domains (registration resizes shard
    arrays under the registry lock). *)

type counter
type gauge
type histogram

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

(** Register (or look up) a metric by name. *)

val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

(** [once register] runs [register] on its first call and returns that
    result from then on: a metric handle resolved on first use.  Unlike
    a [lazy] handle it may be reached from several domains at once.  A
    domain forcing a lazy value that another domain is still forcing
    raises [CamlinternalLazy.Undefined]; racing first calls here each
    run [register] instead, and agree, as registration by name is
    idempotent. *)
val once : (unit -> 'a) -> unit -> 'a

val add : counter -> int -> unit
val incr : counter -> unit
val set : gauge -> int -> unit

(** Record one sample into the histogram's log2 bucket (see
    {!bucket_of}). *)
val observe : histogram -> int -> unit

(** Number of histogram buckets (64). *)
val buckets : int

(** [bucket_of v] is [0] for [v <= 0] and [min 63 (1 + floor(log2 v))]
    otherwise: bucket [k >= 1] holds values in [[2^(k-1), 2^k - 1]]. *)
val bucket_of : int -> int

type hist_snap = { count : int; sum : int; counts : int array }

type snapshot = {
  counters : (string * int) list;  (** name-sorted *)
  gauges : (string * int) list;  (** name-sorted *)
  histograms : (string * hist_snap) list;  (** name-sorted *)
}

(** Merge every shard into one consistent view.  Call after the domains
    writing the metrics have quiesced (e.g. after a pool [map]
    returns). *)
val snapshot : unit -> snapshot

(** Zero every counter, gauge and histogram (registrations are kept). *)
val reset : unit -> unit

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_snap option

(** Counters whose name starts with [prefix], with the prefix stripped,
    in name order — how namespaced counter families (e.g. the
    axiom-coverage [axiom.reject.*] counters) are read back out. *)
val counters_with_prefix : snapshot -> string -> (string * int) list

(** Human-readable dump: counters, gauges, then histograms with count,
    sum, mean and the non-empty buckets. *)
val pp : Format.formatter -> snapshot -> unit

(** Snapshot and print every registered metric (counters, gauges,
    histograms — the [engine.*] and [fence.*] families included) to
    [ppf] (default [std_formatter]): the single dump path shared by the
    CLI tools' [--metrics] flags. *)
val dump : ?ppf:Format.formatter -> unit -> unit
