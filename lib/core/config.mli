(** DBT configurations: the four setups of the paper's evaluation
    (§7.1) plus the knobs they are made of. *)

type t = {
  name : string;
  fences : Mapping.Schemes.frontend;
      (** the row of the mapping table the frontend emits: which fences
          go around guest loads, stores, RMWs and MFENCEs
          ({!Mapping.Schemes.fences}).  The backend's fence lowering
          follows from it ({!Mapping.Schemes.lowering}).  [Qemu_frontend]
          (Figure 2), [Risotto_frontend] (Figure 7a), or
          [No_fences_frontend] (the incorrect oracle: no ordering fences,
          MFENCE still kept as [Fsc]). *)
  passes : Tcg.Pipeline.pass list;
  rmw : Mapping.Schemes.rmw_lowering;
      (** how guest atomic RMWs are translated: [Helper_gcc9] /
          [Helper_gcc10] call into Qemu's helper built on GCC atomics
          (an [ldaxr]/[stlxr] pair with GCC 9, [casal] with GCC 10,
          §3.1); [Risotto_rmw1] emits [casal] and LSE atomics directly
          (§6.3); [Risotto_rmw2] emits [DMBFF; LDXR/STXR; DMBFF]
          (Figure 7b). *)
  host_linker : bool;
  inject : Inject.plan;  (** fault-injection plan; [[]] in all presets *)
  chain : bool;
      (** patch static block exits into direct block-to-block jumps
          (QEMU-style TB chaining).  Chaining executes exactly the same
          translated code in the same order, so results and guest
          cycles are unchanged; [false] gives the unchained dispatch
          baseline.  On in all presets. *)
  trace_threshold : int;
      (** tier-2 threshold: once a block has executed this many times
          and its {!Tier} profile shows a dominant observed successor,
          stitch the dominant path into one superblock and re-run the
          optimizer pipeline across the former block boundaries.  [0]
          (the default in all presets) disables superblock formation;
          requires [chain]. *)
  jit_threshold : int;
      (** tier-0/1 boundary: with [0] (the default in all presets)
          every block is backend-compiled synchronously at first
          translation, exactly the pre-tiered behaviour.  With [n > 0],
          fresh blocks run on the TCG interpreter and a backend compile
          is requested only once the block's execution count reaches
          [n]. *)
  sync_compile : bool;
      (** [true] (the default in all presets): compile requests run
          inline on the execution thread — fully deterministic.
          [false]: requests go to the background install service
          ({!Parallel.Pool.service}) and the thread keeps interpreting
          until the compiled TB is published.  Only meaningful when
          [jit_threshold > 0]. *)
}

(** Vanilla Qemu 6.1.0. *)
val qemu : t

(** Qemu with fence generation disabled (incorrect; performance
    oracle). *)
val no_fences : t

(** Qemu with the verified mappings and fence merging. *)
val tcg_ver : t

(** Full Risotto: verified mappings, fence merging, host linker, native
    CAS. *)
val risotto : t

val all : t list
