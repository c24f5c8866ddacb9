(** Litmus test catalog: the programs of the paper (§2.1, §3.2, §3.3,
    Figures 8 and 9) plus a corpus of classic shape tests, with their
    expected verdicts under each model.  These expectations are the
    ground truth the model implementations are tested against. *)

open Ast

(** {1 Expectation suites}  Each entry is [(name, test)]; the test's
    expectation is what the named model must deliver. *)

val sc_tests : (string * test) list
val x86_tests : (string * test) list

(** Expected under both Arm-Cats variants. *)
val arm_tests_common : (string * test) list

(** Expected only under the original (pre-fix) Arm-Cats model. *)
val arm_tests_original : (string * test) list

(** Expected only under the corrected Arm-Cats model. *)
val arm_tests_corrected : (string * test) list

val tcg_tests : (string * test) list

(** {1 Named paper programs} *)

(** §2.1 message passing, written as an x86 program. *)
val mp_x86 : prog

(** §3.2 MPQ source (x86). *)
val mpq_x86 : prog

(** §3.2 MPQ as translated by Qemu (Arm, with [RMW1_AL]): exhibits the
    forbidden x86 outcome — the paper's first reported Qemu bug. *)
val mpq_qemu_arm : prog

(** §3.2 SBQ source (x86). *)
val sbq_x86 : prog

(** §3.2 SBQ as translated by Qemu (Arm, with [RMW2_AL]). *)
val sbq_qemu_arm : prog

(** §3.3 SBAL source (x86). *)
val sbal_x86 : prog

(** §3.3 SBAL under the "intended" Arm-Cats direct mapping (Figure 3). *)
val sbal_armcats_arm : prog

(** §3.2 FMR: TCG IR program before and after the (unsound in the
    presence of [Fmr]) read-after-write constant propagation. *)
val fmr_tcg_src : prog

val fmr_tcg_tgt : prog

(** Figure 9 programs at TCG IR level (sources for the IR→Arm mapping
    minimality discussion). *)
val fig9_left_tcg : prog

val fig9_right_tcg : prog

(** {1 Mapping corpus}

    x86 source programs over which mapping schemes are checked for
    Theorem-1 refinement.  Covers loads, stores, fences, successful and
    failing RMWs in MP/SB/LB/R/2+2W/IRIW/coherence shapes. *)
val mapping_corpus : (string * prog) list

(** {1 Atomics corpus}

    x86 programs through [LOCK XADD] and [XCHG]: the SB (RMW between a
    store and a load), MP (RMW as the flag write) and SBAL shapes over
    each, and two of each racing on one location under a reader.  Kept
    out of {!mapping_corpus}, whose sweep and verdicts it would
    extend. *)
val atomics_corpus : (string * prog) list
