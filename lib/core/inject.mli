(** Deterministic fault injection for robustness testing.

    A {!plan} names the sites at which the engine should fail on
    purpose — the Nth decode, every backend compile, a seeded fraction
    of host calls — and {!fire} answers "should this occurrence fail?"
    while counting occurrences per site.  Everything is deterministic:
    [Nth]/[Always] by construction, [Seeded] via a fixed-seed LCG, so
    an injected failure reproduces exactly under the same plan.

    Sites cover both the translation stack (decode/compile/host-call)
    and the resilience layer's persistence paths: cache reads {e and}
    writes, supervised pool tasks, and frontier-journal appends — the
    chaos campaign's full surface. *)

type site =
  | Decode  (** frontend decodes a guest instruction *)
  | Compile  (** backend compiles a TCG block to host code *)
  | Host_call  (** a dynamically-linked host library call executes *)
  | Cache_read  (** an entry is read from the persistent cache *)
  | Cache_write
      (** a persistent artifact (translation cache, gelf image) is
          committed to disk — fired between the tmp write and the
          rename, so injection proves the atomic-write path *)
  | Pool_task
      (** a supervised pool task attempt starts (transient fault:
          retried under the supervisor's backoff policy) *)
  | Journal_write
      (** a frontier-journal record is appended — firing tears the
          record mid-write, exercising truncated-tail recovery *)

type rule =
  | Nth of site * int  (** fail the Nth occurrence (1-based) of the site *)
  | Always of site  (** fail every occurrence of the site *)
  | Seeded of { site : site; seed : int64; permille : int }
      (** fail [permille]/1000 of occurrences, pseudo-randomly but
          reproducibly from [seed] *)

type plan = rule list

type t
(** Injection state: the plan plus per-site occurrence counters and
    per-rule RNG state.  One [t] per engine. *)

val create : plan -> t

val disabled : unit -> t
(** An empty plan: {!fire} always answers [false]. *)

val fire : t -> site -> bool
(** Record one occurrence of [site] and report whether the plan says
    this occurrence must fail. *)

val fire_hook : t -> site -> unit -> bool
(** [fire_hook t site] is [fun () -> fire t site]: the thunk shape the
    dependency-free resilience modules ({!Parallel.Frontier},
    {!Parallel.Supervise}, {!Image.Gelf}) take as their chaos hook. *)

val count : t -> site -> int
(** Occurrences of [site] seen so far (fired or not). *)

val fired : t -> site -> int
(** Occurrences of [site] the plan made fail so far. *)

val site_name : site -> string

val site_of_string : string -> site option
(** Inverse of {!site_name}; accepts ['-'] and ['_'] interchangeably. *)

val all_sites : site list

val plan_of_string : string -> (plan, string) result
(** Parse a comma-separated rule list, e.g.
    ["nth:compile:1,always:decode,seeded:host-call:42:250"].  Accepts
    exactly the output of {!pp_plan} on any well-formed plan (sites
    from {!all_sites}, [Nth] counts >= 1, permille within [0, 1000]);
    out-of-range values are rejected with an error naming the offending
    field. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_plan : Format.formatter -> plan -> unit

val plan_to_string : plan -> string
(** [plan_to_string p] parses back to [p] via {!plan_of_string} for
    every well-formed plan (the roundtrip test pins this down). *)
