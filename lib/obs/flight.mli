(** Always-on flight recorder: a fixed-size, per-thread binary ring of
    engine lifecycle events, cheap enough to leave running in
    production and read back only when something goes wrong.

    Unlike {!Trace} (opt-in, unbounded-ish, Chrome-export) and
    {!Metrics} (aggregates only), the flight ring keeps the last ~256
    *individual* events per guest thread with their program counters,
    so a trap postmortem can say what the thread was doing just before
    it died.  Each event is three unboxed array stores and an increment
    — no allocation, no locks; the single writer is the owning thread,
    and readers only look after execution stops.

    Recording is globally on by default.  {!disable} exists for the
    differential parity test and for measuring recorder overhead. *)

type kind =
  | Block_enter  (** dispatched a block; [arg] = tier (0 interp, 1 native) *)
  | Tier_degraded  (** compile failed, block degraded; [arg] = generation *)
  | Trap  (** thread faulted; [arg] = 0 *)
  | Watchdog  (** watchdog fired ([Exhausted]); [arg] = steps *)
  | Fence_pass  (** block translated; [arg] = fences kept in the block *)

val kind_name : kind -> string

type event = { seq : int; kind : kind; pc : int64; arg : int }

type t

(** Global recording switch — on by default. *)
val enable : unit -> unit

val disable : unit -> unit
val enabled : unit -> bool

(** [create ?capacity ()] makes a ring holding the last [capacity]
    events (rounded up to a power of two; default 256). *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Total events ever recorded (not just those still in the ring). *)
val recorded : t -> int

(** [record t kind pc arg] appends an event (no-op while disabled). *)
val record : t -> kind -> int64 -> int -> unit

val reset : t -> unit

(** Events still in the ring, oldest first. *)
val events : t -> event list

(** The last [n] events (default: all retained), oldest first. *)
val last : ?n:int -> t -> event list
