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
