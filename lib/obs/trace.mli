(** Span tracer: begin/end spans with monotonic-within-process
    timestamps, recorded into per-Domain ring buffers and emitted as
    Chrome [trace_event] JSON (loadable in [chrome://tracing] and
    Perfetto).

    The tracer is process-global and off by default.  When disabled,
    every probe is one atomic load plus a branch — nothing is
    formatted, allocated or recorded, so instrumented code paths run at
    full speed.
    When enabled, each domain records into its own fixed-capacity ring
    buffer with no locking on the hot path; once a ring wraps, the
    oldest events are overwritten (counted by {!dropped}).

    {b Behaviour invisibility.}  Probes only read timestamps and write
    into tracer-private buffers; they never touch guest state, so
    enabling tracing cannot change the results of a run
    ([test/test_obs.ml] proves this differentially).

    Argument thunks are lazy: the [(unit -> (string * string) list)]
    callback runs only when tracing is enabled, so callers can attach
    expensive formatting for free in the disabled case. *)

type event = {
  name : string;
  cat : string;  (** category, e.g. ["engine"], ["opt"], ["pool"] *)
  ts_us : float;  (** start, in µs since tracing was enabled *)
  dur_us : float;
      (** duration in µs; negative for instant events ([0.] is a real
          span shorter than the clock resolution) *)
  dom : int;  (** recording domain, reported as the trace [tid] *)
  args : (string * string) list;
}

(** Turn tracing on.  [limit] is the per-domain ring capacity in events
    (default [65536]); existing buffers are cleared and resized.  The
    timestamp epoch is (re)set to now. *)
val enable : ?limit:int -> unit -> unit

(** Turn tracing off.  Recorded events are kept until {!clear}. *)
val disable : unit -> unit

val enabled : unit -> bool

(** [with_span name f] runs [f] inside a span; the span is closed even
    if [f] raises.  Disabled cost: one atomic load and a branch. *)
val with_span :
  ?cat:string ->
  ?args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a

(** Record a zero-duration instant event. *)
val instant :
  ?cat:string -> ?args:(unit -> (string * string) list) -> string -> unit

(** Drop every recorded event (rings stay allocated). *)
val clear : unit -> unit

(** All recorded events, merged across domains and sorted by start
    time. *)
val events : unit -> event list

(** Events lost to ring-buffer wrap-around since the last
    {!enable}/{!clear}. *)
val dropped : unit -> int

(** The Chrome trace: [{"traceEvents": [...]}]. *)
val to_json : unit -> string

(** Write {!to_json} to a file; returns the number of events. *)
val write : string -> int
