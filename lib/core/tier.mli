(** Per-block tier-ladder profile: interp (tier 0) -> baseline native
    (tier 1) -> profile-guided superblock (tier 2).

    Every {!Tbchain} node carries one {!profile}.  The execution thread
    is its only writer: it records the block's observed static-exit
    successors while the block is cold, compiles the block inline when
    it crosses [Config.jit_threshold], and tracks superblock side-exit
    rates for demotion.  No other domain ever reads or writes a
    profile, so this module needs no synchronisation. *)

(** Where the block sits on the ladder.  [Cold] has not been through a
    compile since it was translated (or since {!reset}); without native
    code it runs on the TCG interpreter.  [Published] means a
    native TB was installed (tier 1, or tier 2 once a superblock is
    stitched on top).  [Degraded] is terminal: the backend refused the
    block and the interpreter serves it forever.  A compile always
    ends in [Published] or [Degraded] before the next dispatch. *)
type state = Cold | Published | Degraded

type profile = {
  mutable state : state;
  mutable a_pc : int64;  (** first observed static successor *)
  mutable a_n : int;
  mutable b_pc : int64;  (** second observed static successor *)
  mutable b_n : int;
  mutable other : int;  (** computed jumps, halts, overflow *)
  mutable super_exit : int64;  (** expected superblock exit; -1 unknown *)
  mutable super_entries : int;
  mutable super_side_exits : int;
  mutable deopt_count : int;
}

val fresh : unit -> profile

(** Back to [Cold] with every counter zeroed (reset / cache-load). *)
val reset : profile -> unit

(** Record the target of a static exit ([`Next pc]).  At most two
    distinct targets are tracked inline (a block has at most two
    Goto_tb seams); overflow dilutes dominance via [other]. *)
val record_succ : profile -> int64 -> unit

(** Record a non-stitchable exit (computed jump, halt): counts against
    dominance without naming a successor, because [Tcg.Block.concat]
    cannot stitch across it. *)
val record_other : profile -> unit

(** Total observed exits. *)
val samples : profile -> int

(** [dominant p] is [Some (pc, n)] when at least {!min_samples} exits
    were observed and the leading static successor took >= 60% of
    them — the profile-guided replacement for the static hottest-edge
    heuristic. *)
val dominant : profile -> (int64 * int) option

val min_samples : int

(** Observed-path heat for hot-block ranking: executions plus the
    leading-successor count, so hot-and-predictable blocks (the tier-2
    candidates) outrank merely hot ones. *)
val heat : execs:int -> profile -> int

(** {2 Superblock demotion} *)

val record_super_entry : profile -> unit

(** [record_super_exit p pc]: the installed superblock exited to [pc];
    counts a side exit when that differs from the expected exit. *)
val record_super_exit : profile -> int64 -> unit

(** True when the superblock side-exits more than half the time over at
    least {!min_super_entries} entries. *)
val should_deopt : profile -> bool

val min_super_entries : int
val max_deopts : int
val note_super_installed : profile -> expected_exit:int64 -> unit

(** Demote: bump the deopt count and retrain the successor profile. *)
val note_deopt : profile -> unit

(** False once the block burned {!max_deopts} demotions; formation
    stops retrying. *)
val retry_allowed : profile -> bool
