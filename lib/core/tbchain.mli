(** Translation-block table: the code cache as the engine's dispatch
    loop sees it.

    Each translated block is a {!node} holding its translation
    ([body], which also says how the block runs: native code, or the
    TCG interpreter for a block the backend refused) and its execution
    count.  Dispatch looks a pc up in the thread's {!jcache} first,
    then in this table, and translates only on a miss of both.

    {b Invalidation.}  [reset_counts]/[flush] bump {!generation}; a
    per-thread jump cache filled under an older generation is detected
    lazily and cleared, so it can never serve a dropped node.  (The
    module keeps its name from the deleted TB chaining: [perf/]'s
    [core.tbchain.*] metrics are named after it.) *)

type 'a node = {
  pc : int64;  (** guest pc of the block head *)
  mutable body : 'a;  (** the translation dispatch runs *)
  mutable exec_count : int;
  mutable prof_cycles : int;
      (** guest cycles this block accumulated while {!Obs.Metrics} was
          enabled (0 otherwise) — feeds hot-block ranking *)
}

type 'a t

(** [create ()] makes an empty table.  [size] defaults to 4096
    buckets — sized for real images (hundreds to thousands of blocks)
    rather than toy programs. *)
val create : ?size:int -> unit -> 'a t

(** Bumped by every {!flush}/{!reset_counts}; jump caches compare
    generations to detect stale nodes. *)
val generation : 'a t -> int

val find : 'a t -> int64 -> 'a node option

(** Insert (or replace) the translation for a pc.  Replacing reuses the
    existing node record — jump caches holding it see the new body —
    and resets its counts. *)
val insert : 'a t -> int64 -> 'a -> 'a node

(** Zero every node's counters and bump the generation — used when
    reloading a persistent cache, so hot-block ranking starts over. *)
val reset_counts : 'a t -> unit

(** Drop every node and bump the generation. *)
val flush : 'a t -> unit

val length : 'a t -> int
val fold : (int64 -> 'a node -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** {1 Per-thread jump cache}

    A direct-mapped, power-of-two array keyed by pc bits (cf. QEMU's
    [tb_jmp_cache]), consulted before the table on every dispatch.
    Generation mismatches clear it lazily.  A hit returns the slot's
    own option, so a hit allocates nothing. *)

type 'a jcache

val jcache_create : 'a t -> 'a jcache
val jcache_find : 'a t -> 'a jcache -> int64 -> 'a node option
val jcache_store : 'a t -> 'a jcache -> 'a node -> unit
