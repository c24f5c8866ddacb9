(** Profiling helpers built on {!Trace} and {!Metrics}: wall-clock
    section timing and hot-block ranking.

    Like every probe in this library, {!time} is behaviour-invisible
    and near-free when metrics are disabled. *)

(** Wall-clock microseconds (float), suitable for durations. *)
val now_us : unit -> float

(** [time h f] runs [f], recording its wall-clock duration in
    nanoseconds into histogram [h] — only when metrics are enabled
    (disabled cost: one atomic load and a branch).  Exceptions
    propagate untimed. *)
val time : Metrics.histogram -> (unit -> 'a) -> 'a

(** A profiled block: [key] its guest pc, [count] how many times it was
    dispatched, [cost] its accumulated guest cycles (0 when metrics
    were off during the run — cycle attribution is metered). *)
type entry = { key : int64; count : int; cost : int }

(** The [limit] highest-ranked entries, best first: by accumulated
    cycles when measured, otherwise by execution count; ties broken by
    count, then key. *)
val rank : ?limit:int -> entry list -> entry list

val pp_entry : Format.formatter -> entry -> unit
