(** The Risotto execution engine (Figure 4): translation-block cache,
    execution loop, guest threads and statistics.

    Guest GP registers live pinned in host registers X0–X15; guest
    threads share the guest memory and the code cache, and are scheduled
    round-robin at translation-block granularity.

    {b Dispatch.}  Every block exit resolves the next pc through the
    thread's direct-mapped jump cache (cf. QEMU's [tb_jmp_cache]), then
    the global table ({!Tbchain}), then translation (DESIGN.md,
    "Dispatch hot path").

    {b One compile path.}  A block is compiled when it is translated:
    the frontend and the TCG pipeline build its optimized TCG, and the
    backend turns that into native code ([Native]).  If the backend
    refuses the block, or an injected compile fault fires, the block
    keeps its TCG and runs on the TCG interpreter for good
    ([Interp_only]).  There is no interpreter tier in front of native
    code and none above it: one dispatch runs one guest block.

    {b Fault model.}  Guest-caused failures (undecodable code, missing
    helpers, unresolvable imports, runaway blocks) never abort a run:
    the faulting thread finishes with {!trap} set to the {!Fault.t}
    describing what happened, and every other thread keeps running.
    Backend compilation failures demote the block to the TCG
    interpreter (degraded mode, counted in [stats.interp_fallbacks])
    with unchanged semantics. *)

(** A snapshot of the engine's counters (see {!stats}).  Each field is
    one {!event} counter, except [cache_hits] and [lookups], which sum
    the dispatch-path events. *)
type stats = {
  blocks_translated : int;
  blocks_executed : int;
      (** dispatches through the execute loop, one per executed guest
          block *)
  cache_hits : int;
      (** dispatches/fetches that did not need a fresh translation,
          whichever fast path served them *)
  lookups : int;  (** all dispatches/fetches *)
  fences_emitted : int;  (** DMBs in translated code *)
  tcg_ops_before_opt : int;
  tcg_ops_after_opt : int;
  chain_hits : int;
      (** always 0.  Named for the TB chaining that an earlier version
          kept; the field stays for [perf/dbt.ml] until its next
          edit. *)
  jmp_cache_hits : int;
      (** dispatches served by the per-thread direct-mapped jump cache *)
  interp_fallbacks : int;
      (** blocks the backend could not compile, demoted to the TCG
          interpreter *)
  traps : int;  (** guest threads finished by a fault *)
  cache_quarantined : int;
      (** persistent-cache entries dropped by {!load_cache} because
          their checksum (or framing-internal decode) failed; each one
          just retranslates on first execution *)
  interp_execs : int;
      (** dispatches served by the TCG interpreter, i.e. executions of
          degraded blocks *)
}

(** The engine's lifecycle events.  Each site that counts something
    emits one event; the event's row in the engine's table names its
    counter (the [stats] field, the [engine.stats.<name>] gauge and the
    {!stats_line} label), its {!Obs.Flight} kind and its log level. *)
type event =
  | Translated  (** [blocks_translated]; flight [Fence_pass] *)
  | Executed  (** [blocks_executed]; flight [Block_enter] *)
  | Jcache_hit  (** [jmp_cache_hits] *)
  | Fallback
      (** [interp_fallbacks]: a backend compile failed; flight
          [Tier_degraded] *)
  | Trapped  (** [traps]; flight [Trap] *)
  | Cache_quarantined  (** [cache_quarantined] *)
  | Interp_exec  (** [interp_execs] *)
  | Table_hit  (** [table_hits]: dispatches/fetches served by the table *)
  | Lookup_miss
      (** [lookup_misses]: dispatches/fetches that had to translate *)
  | Fences_emitted  (** [fences_emitted], summed *)
  | Ops_before  (** [tcg_ops_before_opt], summed *)
  | Ops_after  (** [tcg_ops_after_opt], summed *)
  | Watchdog_fired
      (** [watchdogs]: live threads stopped by the block budget; flight
          [Watchdog] *)

(** Every event, in table order. *)
val events : event list

(** The event's counter name. *)
val event_name : event -> string

(** The flight-ring kind the event records, if any (into the engine's
    ring, or the owning thread's for [Executed], [Trapped] and
    [Watchdog_fired]). *)
val event_flight : event -> Obs.Flight.kind option

(** Engine log source ([risotto.engine]), fed by the event table:
    [info] logs translations, [debug] every
    executed block, [warn] faults and degraded modes. *)
val log_src : Logs.src

type t

(** How the block at a pc executes: natively, or on the TCG
    interpreter because the backend could not compile it. *)
type compiled = Native of Arm.Insn.t array | Interp_only of Tcg.Block.t

type guest_thread = {
  arm : Arm.Machine.thread;
  mutable pc : int64;
  mutable finished : bool;
  mutable trap : Fault.t option;
      (** set when the thread was stopped by a fault *)
  jcache : compiled Tbchain.jcache;
      (** per-thread direct-mapped TB lookup cache, consulted before
          the table on every dispatch *)
  gflight : Obs.Flight.t;
      (** this thread's flight ring — see {!thread_flight} *)
  ienv : Tcg.Interp.env;
      (** this thread's TCG interpreter state, reused by every degraded
          block it runs *)
}

(** Create an engine.  [idl] defaults to the full host-library IDL when
    the config enables the linker; pass [~idl:[]] to disable linking of
    everything.  The engine's fault-injection state is built from
    [config.inject]. *)
val create :
  ?cost:Arm.Cost.t -> ?idl:Linker.Idl.signature list -> Config.t ->
  Image.Gelf.t -> t

val config : t -> Config.t
val memory : t -> Memsys.Mem.t

(** The counters as of now (a snapshot: later runs do not change it). *)
val stats : t -> stats

(** One event's counter. *)
val count : t -> event -> int
val links : t -> Linker.Link.t

val injector : t -> Inject.t
(** The engine's fault-injection state (shared with the frontend and
    the registered helpers). *)

(** Lowest address of the default stack area; thread [tid] gets the
    64 KiB below [stack_top tid]. *)
val stack_top : int -> int64

(** Create a guest thread starting at [entry]; [regs] preloads guest
    registers. *)
val spawn :
  t -> tid:int -> entry:int64 -> ?regs:(X86.Reg.t * int64) list -> unit ->
  guest_thread

(** Translate (or fetch from cache) the block at an address.  Returns
    its translation: [Native], or [Interp_only] for a degraded block. *)
val fetch : t -> int64 -> compiled

(** Flush the translation caches: every block is dropped, and the
    table's generation is bumped so no per-thread jump cache can serve
    a dropped block. *)
val reset : t -> unit

(** Current block-table generation; bumped by {!reset} and by a
    successful {!load_cache} (both make every thread's jump cache
    refill). *)
val generation : t -> int

(** The native code at an address, translated first if need be (like
    {!fetch}).  Raises {!Fault.Fault} ([Backend_fault]) if the block is
    degraded (the backend failed to compile it); prefer {!fetch}. *)
val lookup_block : t -> int64 -> Arm.Insn.t array

(** The optimized TCG block at an address (for inspection), translated
    first if need be (like {!fetch}).  The engine keeps no TCG for a
    block that holds native code, so for one this re-translates the
    block: a frontend decode plus the pipeline, about as much as the
    first translation minus the backend, and invisible to every
    counter, metric, flight ring and {!Inject.count}.  A block an
    injected fault hit while it was translated returns the TCG kept
    from then.  Raises [Not_found] for a block loaded from the
    persistent cache. *)
val tcg_block : t -> int64 -> Tcg.Block.t

(** Execute one translation block of the thread.  Faults are absorbed:
    they finish the thread and set its [trap] field. *)
val step_block : t -> guest_thread -> unit

(** Run a thread until it halts (or the block budget is exhausted). *)
val run_thread : ?max_blocks:int -> t -> guest_thread -> unit

(** Result of {!run_concurrent}: either every thread halted (or
    trapped), or the watchdog budget ran out first. *)
type outcome =
  | Completed of guest_thread list
  | Exhausted of {
      blocks : int;  (** blocks executed when the budget ran out *)
      live_threads : int;  (** threads still runnable *)
      threads : guest_thread list;
    }

(** All threads of an outcome (including clone-spawned ones),
    regardless of how the run ended. *)
val threads : outcome -> guest_thread list

(** Round-robin over the threads (at translation-block granularity)
    until all halt or trap, or [max_blocks] is exhausted (watchdog;
    reported as [Exhausted] rather than silently stopping).  Threads
    the guest creates through the clone syscall (56) join the rotation;
    the outcome includes them.  Guest syscalls: 1 write, 56
    clone(fn, arg), 60 exit, 186 gettid. *)
val run_concurrent :
  ?max_blocks:int -> t -> guest_thread list -> outcome

(** Convenience: spawn a single thread at the image entry, run it, and
    return it. *)
val run : ?max_blocks:int -> ?regs:(X86.Reg.t * int64) list -> t -> guest_thread

(** Guest register value of a thread. *)
val reg : guest_thread -> X86.Reg.t -> int64

val cycles : guest_thread -> int

val trap : guest_thread -> Fault.t option
(** The fault that stopped the thread, if any. *)

(** {1 Observability}

    The engine emits {!Obs.Trace} spans around translation and
    concurrent runs, and feeds {!Obs.Metrics} when the registry is
    enabled; both are single-branch no-ops otherwise. *)

(** Hottest translated blocks, ranked by {!Obs.Profile.rank}:
    attributed guest cycles (collected while metrics are enabled), then
    execution count.  [limit] defaults to 10. *)
val hot_blocks : ?limit:int -> t -> Obs.Profile.entry list

(** One-line run summary for CLIs: guest cycles of [g], then every
    event counter labelled with its name, dashed.  The core counters
    are printed unconditionally — in particular [interp-fallbacks=0] on
    a clean run, so silent degradation is impossible to confuse with
    "not reported"; the rest (e.g. [watchdogs]) only when nonzero. *)
val stats_line : t -> guest_thread -> string

(** {2 Flight recorder and postmortems}

    Every guest thread carries an always-on {!Obs.Flight} ring of its
    recent lifecycle events (block entries, trap, watchdog), and the
    engine keeps one more for events not owned by a single thread
    (fallbacks, fence passes).
    When a postmortem directory is configured, any trap or watchdog
    exhaustion dumps a deterministic JSON artifact combining the rings
    with how each block runs, fence ledgers and a metrics slice. *)

(** The engine-wide flight ring. *)
val flight : t -> Obs.Flight.t

(** A thread's flight ring (same as its [gflight] field). *)
val thread_flight : guest_thread -> Obs.Flight.t

(** Enable/disable postmortem dumps by setting the output directory
    (created on first dump).  [None] (the default) disables dumping;
    {!postmortem_json} works regardless. *)
val set_postmortem_dir : t -> string option -> unit

val postmortem_dir : t -> string option

(** Artifacts written so far (filenames [postmortem-NNN.json]). *)
val postmortems_written : t -> int

(** Build the postmortem document: [reason], config name, each thread's
    last [last] flight events (default 32) with its pc/trap state, the
    engine ring, each block's state sorted by pc ([published] for
    native code, [degraded] for the interpreter), the fence ledger
    of every trapping block, every engine counter ([stats]), and the deterministic (non-wall-clock) slice of
    the metrics registry.
    Byte-identical across identical runs. *)
val postmortem_json : ?last:int -> t -> reason:string -> Report.Json.t

(** Fence provenance ledger of the block cached at a pc, if this engine
    translated it (blocks loaded from the persistent cache, and pcs not
    translated since the last {!reset}, have none).

    The hot path only counts fence outcomes ([fence.<kind>.<outcome>]
    in {!Obs.Metrics}); the ledger is re-derived here by re-translating
    the block, since translation is deterministic.  Each call costs one
    frontend decode and one pipeline run, and bumps no engine counter,
    metric or flight ring, and no {!Inject.count}: the frontend it uses
    has injection disabled.  The one exception is a block an injected
    decode fault hit while it was translated — re-translation could not
    reproduce it, so the engine kept its ledger then. *)
val fence_ledger : t -> int64 -> Tcg.Fence_ledger.t option

(** {!fence_ledger} of every cached block, sorted by pc: one
    re-translation per block. *)
val fence_ledgers : t -> (int64 * Tcg.Fence_ledger.t) list

(** Publish every engine counter into the {!Obs.Metrics} registry as an
    [engine.stats.<name>] gauge — the one registry name of each
    counter.  Events only bump the engine's own counter array (no
    registry cost on the dispatch path); call this once at the end of a
    run, before snapshotting the registry.  No-op when metrics are
    disabled. *)
val publish_metrics : t -> unit

(** {1 Persistent translation cache}

    Translated code can be saved after a run and reloaded by a later
    engine with the same configuration, skipping retranslation (cf. the
    caching translators in the paper's related work). *)

(** Returns the number of blocks written.  Each entry is framed with
    its length and a CRC-32 of its body (format "RSTC2"), so later
    loads can drop individually damaged entries instead of rejecting
    the file.  The write is atomic: the cache is assembled in a
    temporary file renamed into place, so a crash mid-save cannot
    leave a truncated cache under [path].  The {!Inject.Cache_write}
    site fires after the temporary file is complete but before the
    rename — an injected fault there raises [Fault Cache_corrupt] and
    leaves any previous cache under [path] intact. *)
val save_cache : t -> string -> int

(** Returns the number of blocks loaded, or the {!Fault.t}
    ([Cache_corrupt]) explaining why the file was rejected —
    structurally corrupt, truncated, unreadable, or built by a
    different configuration.  An entry whose frame is intact but whose
    body fails its checksum is {e quarantined}: skipped (it will
    retranslate on demand), counted in {!stats.cache_quarantined},
    and the rest of the file still
    loads.  On [Error] the engine's code cache is untouched (cold
    start); nothing is ever partially loaded.  On [Ok] every block's
    execution counts restart and {!generation} is bumped, so every
    thread's jump cache refills. *)
val load_cache : t -> string -> (int, Fault.t) result

(** Offline integrity check for a cache file ([gelf_tool verify]).
    [Ok (valid, bad)] lists the per-entry problems ([bad] empty means
    the file is fully intact); [Error] is structural damage that would
    make {!load_cache} reject the whole file.  Does not require an
    engine and does not enforce the config binding. *)
val verify_cache : string -> (int * string list, Fault.t) result
