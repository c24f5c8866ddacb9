(** Supervised task execution: per-task deadlines, bounded retry with
    exponential backoff, and poison-task quarantine.

    OCaml Domains cannot be preempted, so deadlines are {e cooperative}:
    the supervisor installs a domain-local cancellation token around
    each attempt and long-running task code polls it ({!poll}) from its
    hot loops — the litmus enumerator and the mapping checker do.  When
    the deadline passes, the next poll raises and the supervisor turns
    it into a typed {!failure} instead of wedging a worker forever.

    Failure handling is tiered:
    - a {b timeout} is terminal (the tasks here are deterministic, so a
      second attempt would time out again) and surfaces as
      [Timed_out];
    - any {b other exception} is treated as potentially transient and
      retried up to [retries] more times with exponential backoff;
    - a task still failing after its attempt budget is {b quarantined}:
      it surfaces as [Quarantined] carrying the last fault, and the
      sweep goes on without it.

    Everything is opt-in: {!default} (no deadline, no retries, no
    chaos) makes {!run} observationally [fun f -> Ok (f ())] apart from
    exceptions being captured, and {!poll} while no token is installed
    is a domain-local read and a branch.  Counters: [task.retry],
    [task.timeout], [task.quarantined]. *)

type policy = {
  deadline_s : float option;  (** per-attempt cooperative deadline *)
  retries : int;  (** extra attempts after the first failure *)
  backoff_s : float;
      (** sleep before retry [k] is [backoff_s *. 2^(k-1)], capped at
          [max_backoff_s] *)
  max_backoff_s : float;
  chaos : (unit -> bool) option;
      (** polled at each attempt's start; [true] injects a transient
          {!Injected} fault (the [pool-task] chaos site) *)
}

val default : policy
(** No deadline, no retries, 10ms base backoff, no chaos. *)

type failure =
  | Timed_out of { attempts : int; deadline_s : float }
  | Quarantined of { attempts : int; last : Pool.fault }
      (** [last.index] is the task's input position under {!map}, [-1]
          under {!run} *)

val pp_failure : Format.formatter -> failure -> unit

exception Deadline_exceeded of { elapsed_s : float; deadline_s : float }
(** Raised by {!poll} (in the task's own context) when the installed
    deadline has passed. *)

exception Injected of string
(** The transient fault injected by a firing [chaos] hook. *)

val poll : unit -> unit
(** Cooperative cancellation point: cheap enough for enumeration inner
    loops (a domain-local read while unsupervised; the clock is sampled
    every 32nd poll under a token).  Raises {!Deadline_exceeded} when
    the current task's deadline has passed. *)

val run : policy -> (unit -> 'a) -> ('a, failure) result
(** Supervise one computation on the calling domain. *)

val map : ?pool:Pool.t -> policy -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** Supervise every task of a sweep, optionally on a {!Pool} (the
    wrapper never raises, so pool-level fault capture is never hit);
    results in input order. *)
