(** Translation-block chain table: block-to-block links and hot-trace
    bookkeeping for the engine's dispatch loop.

    Each translated block is a {!node} holding its translation
    ([body]), what dispatch actually runs ([active] — the body, or a
    superblock stitched over a hot trace), an execution count, and the
    {e patched edges}: static exits resolved once through the cache and
    recorded so later executions follow the link without a hashtable
    lookup (QEMU-style direct chaining).

    {b Invalidation.}  [clear_links]/[flush] bump {!generation}; stale
    per-thread state (jump caches, pending chained targets) is detected
    lazily by comparing generations, so a cache reload can never leave
    a patched jump pointing at dead code. *)

type 'a node = {
  pc : int64;  (** guest pc of the block head *)
  mutable body : 'a;  (** the original translation *)
  mutable active : 'a;  (** what dispatch executes (body or superblock) *)
  mutable exec_count : int;
  mutable edges : 'a edge list;  (** patched static exits, one per pc *)
  mutable super_len : int;  (** blocks stitched into [active]; 0 = none *)
  mutable no_super : bool;  (** formation failed once; do not retry *)
  mutable prof_cycles : int;
      (** guest cycles this block accumulated while {!Obs.Metrics} was
          enabled (0 otherwise) — feeds hot-block ranking *)
  tier : Tier.profile;
      (** tier-ladder state and observed-successor profile; reset along
          with the other hotness state on {!insert}/{!clear_links} *)
}

and 'a edge = { epc : int64; target : 'a node }

type 'a t

(** [create ~chain ()] makes an empty table.  [size] defaults to 4096
    buckets — sized for real images (hundreds to thousands of blocks)
    rather than toy programs.  With [chain = false], {!link} refuses to
    patch edges and {!follow} never fires, giving an unchained baseline
    with identical semantics. *)
val create : ?size:int -> chain:bool -> unit -> 'a t

val chaining : 'a t -> bool

(** Bumped by every {!flush}/{!clear_links}; consumers compare
    generations to detect stale cached nodes. *)
val generation : 'a t -> int

val find : 'a t -> int64 -> 'a node option

(** Insert (or replace) the translation for a pc.  Replacing reuses the
    existing node record — edges into it keep working and see the new
    body — and resets its edges, counts and superblock state. *)
val insert : 'a t -> int64 -> 'a -> 'a node

(** [link t from ~epc target] patches the static exit of [from] at
    guest pc [epc] to jump straight to [target].  Returns [true] if a
    new edge was recorded; [false] if chaining is disabled, the exit is
    already patched, or the per-node edge budget (2, the two arms of a
    Jcc) is full. *)
val link : 'a t -> 'a node -> epc:int64 -> 'a node -> bool

(** Follow a patched edge for exit pc. *)
val follow : 'a node -> int64 -> 'a node option

(** Make [active] a superblock covering [len] stitched blocks and drop
    the node's now-stale edges. *)
val install_super : 'a node -> 'a -> len:int -> unit

(** Unpatch every edge, demote superblocks back to their bodies, reset
    hotness counters and bump the generation — used when reloading a
    persistent cache, where translations change under the chains. *)
val clear_links : 'a t -> unit

(** Drop every node and bump the generation. *)
val flush : 'a t -> unit

val length : 'a t -> int
val fold : (int64 -> 'a node -> 'b -> 'b) -> 'a t -> 'b -> 'b
val iter : (int64 -> 'a node -> unit) -> 'a t -> unit

(** Total patched edges across the table (diagnostics/tests). *)
val edge_count : 'a t -> int

(** {1 Per-thread jump cache}

    A direct-mapped, power-of-two array keyed by pc bits (cf. QEMU's
    [tb_jmp_cache]), consulted before the global hashtable on exits
    that are not chained (computed jumps, first visits).  Generation
    mismatches clear it lazily. *)

type 'a jcache

val jcache_create : 'a t -> 'a jcache
val jcache_find : 'a t -> 'a jcache -> int64 -> 'a node option
val jcache_store : 'a t -> 'a jcache -> 'a node -> unit
