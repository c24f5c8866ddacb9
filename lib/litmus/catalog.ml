open Ast
open Dsl

(* ------------------------------------------------------------------ *)
(* Classic shapes, parameterised by access/fence flavour               *)

let mp_x86 =
  prog "MP" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; st "Y" 1 ]; [ ld "a" "Y"; ld "b" "X" ] ]

let mp_weak = reg_is 1 "a" 1 &&& reg_is 1 "b" 0

let sb_x86 =
  prog "SB" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; ld "a" "Y" ]; [ st "Y" 1; ld "b" "X" ] ]

let sb_weak = reg_is 0 "a" 0 &&& reg_is 1 "b" 0

let sb_mfence_x86 =
  prog "SB+mfences" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; mfence; ld "a" "Y" ]; [ st "Y" 1; mfence; ld "b" "X" ] ]

let lb_x86 =
  prog "LB" [ ("X", 0); ("Y", 0) ]
    [ [ ld "a" "X"; st "Y" 1 ]; [ ld "b" "Y"; st "X" 1 ] ]

let lb_weak = reg_is 0 "a" 1 &&& reg_is 1 "b" 1

let corr_x86 =
  prog "CoRR" [ ("X", 0) ] [ [ st "X" 1 ]; [ ld "a" "X"; ld "b" "X" ] ]

let corr_weak = reg_is 1 "a" 1 &&& reg_is 1 "b" 0

let two_plus_two_w =
  prog "2+2W" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; st "Y" 2 ]; [ st "Y" 1; st "X" 2 ] ]

let two_plus_two_weak = loc_is "X" 1 &&& loc_is "Y" 1

let iriw_x86 =
  prog "IRIW" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ st "Y" 1 ];
      [ ld "a" "X"; ld "b" "Y" ];
      [ ld "c" "Y"; ld "d" "X" ];
    ]

let iriw_weak =
  reg_is 2 "a" 1 &&& reg_is 2 "b" 0 &&& reg_is 3 "c" 1 &&& reg_is 3 "d" 0

(* SB through successful RMWs: x86 RMWs act as full fences (§2.4). *)
let sb_rmw_x86 =
  prog "SB+rmws" [ ("X", 0); ("Y", 0); ("Z", 0); ("U", 0) ]
    [
      [ st "X" 1; cas_x86 "Z" 0 1; ld "a" "Y" ];
      [ st "Y" 1; cas_x86 "U" 0 1; ld "b" "X" ];
    ]

(* Atomicity: two competing successful RMWs on one location. *)
let rmw_atomicity_x86 =
  prog "RMW-atomicity" [ ("X", 0) ]
    [ [ cas_x86 ~reg:"a" "X" 0 1 ]; [ cas_x86 ~reg:"b" "X" 0 2 ] ]

let both_rmw_won = reg_is 0 "a" 0 &&& reg_is 1 "b" 0

(* ------------------------------------------------------------------ *)
(* §3.2 MPQ                                                            *)

let mpq_x86 =
  prog "MPQ" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1; st "Y" 1 ];
      [ ld "a" "Y"; if_ (Eq (r "a", !1)) [ cas_x86 "X" 1 2 ] ];
    ]

let mpq_weak = reg_is 1 "a" 1 &&& loc_is "X" 1

let mpq_qemu_arm =
  prog "MPQ-qemu-arm" [ ("X", 0); ("Y", 0) ]
    [
      [ dmb_full; st "X" 1; dmb_full; st "Y" 1 ];
      [ dmb_ld; ld "a" "Y"; if_ (Eq (r "a", !1)) [ cas_amo_al "X" 1 2 ] ];
    ]

(* ------------------------------------------------------------------ *)
(* §3.2 SBQ                                                            *)

let sbq_x86 =
  prog "SBQ" [ ("X", 0); ("Y", 0); ("Z", 0); ("U", 0) ]
    [
      [ st "X" 1; cas_x86 "Z" 0 1; ld "a" "Y" ];
      [ st "Y" 1; cas_x86 "U" 0 1; ld "b" "X" ];
    ]

let sbq_weak =
  loc_is "Z" 1 &&& loc_is "U" 1 &&& reg_is 0 "a" 0 &&& reg_is 1 "b" 0

let sbq_qemu_arm =
  prog "SBQ-qemu-arm" [ ("X", 0); ("Y", 0); ("Z", 0); ("U", 0) ]
    [
      [
        dmb_full;
        st "X" 1;
        cas_lxsx ~acq:true ~rel:true "Z" 0 1;
        dmb_ld;
        ld "a" "Y";
      ];
      [
        dmb_full;
        st "Y" 1;
        cas_lxsx ~acq:true ~rel:true "U" 0 1;
        dmb_ld;
        ld "b" "X";
      ];
    ]

(* ------------------------------------------------------------------ *)
(* §3.3 SBAL                                                           *)

let sbal_x86 =
  prog "SBAL" [ ("X", 0); ("Y", 0) ]
    [
      [ cas_x86 "X" 0 1; ld "a" "Y" ];
      [ cas_x86 "Y" 0 1; ld "b" "X" ];
    ]

let sbal_weak =
  loc_is "X" 1 &&& loc_is "Y" 1 &&& reg_is 0 "a" 0 &&& reg_is 1 "b" 0

let sbal_armcats_arm =
  prog "SBAL-armcats" [ ("X", 0); ("Y", 0) ]
    [
      [ cas_amo_al "X" 0 1; ld_q "a" "Y" ];
      [ cas_amo_al "Y" 0 1; ld_q "b" "X" ];
    ]

(* ------------------------------------------------------------------ *)
(* §3.2 FMR: the RAW transformation is unsound across an Fmr fence     *)

let fmr_tcg_src =
  prog "FMR-src" [ ("X", 0); ("Y", 0); ("Z", 0) ]
    [
      [
        st "X" 3;
        fence Axiom.Event.F_mr;
        st "Y" 2;
        ld "a" "Y";
        fence Axiom.Event.F_rw;
        st "Z" 2;
      ];
      [
        ld "z" "Z";
        if_ (Eq (r "z", !2))
          [ fence Axiom.Event.F_rw; st "X" 4; ld "c" "X" ];
      ];
    ]

let fmr_tcg_tgt =
  prog "FMR-tgt" [ ("X", 0); ("Y", 0); ("Z", 0) ]
    [
      [
        st "X" 3;
        fence Axiom.Event.F_mr;
        st "Y" 2;
        assign "a" !2;
        fence Axiom.Event.F_rw;
        st "Z" 2;
      ];
      [
        ld "z" "Z";
        if_ (Eq (r "z", !2))
          [ fence Axiom.Event.F_rw; st "X" 4; ld "c" "X" ];
      ];
    ]

let fmr_weak = reg_is 0 "a" 2 &&& reg_is 1 "c" 3 &&& reg_is 1 "z" 2

(* ------------------------------------------------------------------ *)
(* Figure 8: minimality of the x86 → IR mapping                        *)

let lb_ir =
  prog "LB-IR" [ ("X", 0); ("Y", 0) ]
    [
      [ ld "a" "X"; fence Axiom.Event.F_rw; st "Y" 1 ];
      [ ld "b" "Y"; fence Axiom.Event.F_rw; st "X" 1 ];
    ]

let mp_ir =
  prog "MP-IR" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1; fence Axiom.Event.F_ww; st "Y" 1 ];
      [ ld "a" "Y"; fence Axiom.Event.F_rr; ld "b" "X" ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 9: minimality of the IR → Arm mapping                        *)

(* Paper notation "RMW(Y,0,1)" fixes the RMW to read 0 and write 1.
   The distinguishing weak outcome of this 2+2W shape is: both RMWs
   succeed (read 0) while both plain stores end up coherence-last —
   impossible in the IR (RMWs are SC), possible on Arm without the
   DMBFF fences.  (The rmw-write-last variant is already excluded by
   the atomicity axiom in every model.) *)
let fig9_left_tcg =
  prog "Fig9-left" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 2; cas_tcg ~reg:"a" "Y" 0 1 ];
      [ st "Y" 2; cas_tcg ~reg:"b" "X" 0 1 ];
    ]

let fig9_left_weak =
  reg_is 0 "a" 0 &&& reg_is 1 "b" 0 &&& loc_is "X" 2 &&& loc_is "Y" 2

let fig9_right_tcg =
  prog "Fig9-right" [ ("X", 0); ("Y", 0) ]
    [ [ cas_tcg "X" 0 1; ld "a" "Y" ]; [ cas_tcg "Y" 0 1; ld "b" "X" ] ]

let fig9_right_weak = reg_is 0 "a" 0 &&& reg_is 1 "b" 0

(* Fig 9 programs lowered to Arm with RMW2 and the leading/trailing
   DMBFF fences of the verified mapping — and without, to show the
   fences are necessary. *)
let fig9_left_arm_fenced =
  prog "Fig9-left-arm+dmb" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 2; dmb_full; cas_lxsx ~reg:"a" "Y" 0 1; dmb_full ];
      [ st "Y" 2; dmb_full; cas_lxsx ~reg:"b" "X" 0 1; dmb_full ];
    ]

let fig9_left_arm_unfenced =
  prog "Fig9-left-arm-nofence" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 2; cas_lxsx ~reg:"a" "Y" 0 1 ];
      [ st "Y" 2; cas_lxsx ~reg:"b" "X" 0 1 ];
    ]

let fig9_right_arm_fenced =
  prog "Fig9-right-arm+dmb" [ ("X", 0); ("Y", 0) ]
    [
      [ dmb_full; cas_lxsx "X" 0 1; dmb_full; ld "a" "Y" ];
      [ dmb_full; cas_lxsx "Y" 0 1; dmb_full; ld "b" "X" ];
    ]

let fig9_right_arm_unfenced =
  prog "Fig9-right-arm-nofence" [ ("X", 0); ("Y", 0) ]
    [
      [ cas_lxsx "X" 0 1; ld "a" "Y" ];
      [ cas_lxsx "Y" 0 1; ld "b" "X" ];
    ]

(* ------------------------------------------------------------------ *)
(* Arm flavoured classics                                              *)

let mp_arm =
  prog "MP-arm" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; st "Y" 1 ]; [ ld "a" "Y"; ld "b" "X" ] ]

let mp_arm_dmb =
  prog "MP-arm+dmbs" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; dmb_full; st "Y" 1 ]; [ ld "a" "Y"; dmb_full; ld "b" "X" ] ]

let mp_arm_dmbst_dmbld =
  prog "MP-arm+dmbst+dmbld" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; dmb_st; st "Y" 1 ]; [ ld "a" "Y"; dmb_ld; ld "b" "X" ] ]

(* dmb.st on the writer alone does not restore MP: the reader's loads
   may still be reordered (ctrl does not order R-R). *)
let mp_arm_dmbst_ctrl =
  prog "MP-arm+dmbst+ctrl" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1; dmb_st; st "Y" 1 ];
      [ ld "a" "Y"; if_ (Eq (r "a", !1)) [ ld "b" "X" ] ];
    ]

(* Release/acquirePC restores MP (Figure 3 mapping building block). *)
let mp_arm_rel_q =
  prog "MP-arm+rel+q" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; st_rel "Y" 1 ]; [ ld_q "a" "Y"; ld "b" "X" ] ]

let lb_arm =
  prog "LB-arm" [ ("X", 0); ("Y", 0) ]
    [ [ ld "a" "X"; st "Y" 1 ]; [ ld "b" "Y"; st "X" 1 ] ]

(* Data dependencies forbid LB on Arm. *)
let lb_arm_data =
  prog "LB-arm+datas" [ ("X", 0); ("Y", 0) ]
    [ [ ld "a" "X"; st_e "Y" (r "a") ]; [ ld "b" "Y"; st_e "X" (r "b") ] ]

let lb_arm_data_weak = reg_is 0 "a" 1 &&& reg_is 1 "b" 1

let sb_arm =
  prog "SB-arm" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; ld "a" "Y" ]; [ st "Y" 1; ld "b" "X" ] ]

let sb_arm_dmb =
  prog "SB-arm+dmbs" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; dmb_full; ld "a" "Y" ]; [ st "Y" 1; dmb_full; ld "b" "X" ] ]

let corr_arm =
  prog "CoRR-arm" [ ("X", 0) ] [ [ st "X" 1 ]; [ ld "a" "X"; ld "b" "X" ] ]

(* ------------------------------------------------------------------ *)
(* TCG flavoured shapes                                                *)

let sb_tcg_plain =
  prog "SB-tcg" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; ld "a" "Y" ]; [ st "Y" 1; ld "b" "X" ] ]

let sb_tcg_fwr =
  prog "SB-tcg+fwr" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1; fence Axiom.Event.F_wr; ld "a" "Y" ];
      [ st "Y" 1; fence Axiom.Event.F_wr; ld "b" "X" ];
    ]

let mp_tcg_plain =
  prog "MP-tcg" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 1; st "Y" 1 ]; [ ld "a" "Y"; ld "b" "X" ] ]

(* The verified x86→IR mapping output for MP (Figure 7a applied). *)
let mp_tcg_mapped =
  prog "MP-tcg-mapped" [ ("X", 0); ("Y", 0) ]
    [
      [
        fence Axiom.Event.F_ww;
        st "X" 1;
        fence Axiom.Event.F_ww;
        st "Y" 1;
      ];
      [
        ld "a" "Y";
        fence Axiom.Event.F_rm;
        ld "b" "X";
        fence Axiom.Event.F_rm;
      ];
    ]


(* ------------------------------------------------------------------ *)
(* More classic shapes                                                 *)

(* S: write-to-read causality into an overwriting store. *)
let s_x86 =
  prog "S" [ ("X", 0); ("Y", 0) ]
    [ [ st "X" 2; st "Y" 1 ]; [ ld "a" "Y"; st "X" 1 ] ]

let s_weak = reg_is 1 "a" 1 &&& loc_is "X" 2

(* WRC: write-read causality across three threads. *)
let wrc_x86 =
  prog "WRC" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ ld "a" "X"; st "Y" 1 ];
      [ ld "b" "Y"; ld "c" "X" ];
    ]

let wrc_weak = reg_is 1 "a" 1 &&& reg_is 2 "b" 1 &&& reg_is 2 "c" 0

(* Coherence shapes. *)
let coww =
  prog "CoWW" [ ("X", 0) ] [ [ st "X" 1; st "X" 2 ] ]

let coww_weak = loc_is "X" 1

let corw1 =
  prog "CoRW1" [ ("X", 0) ] [ [ ld "a" "X"; st "X" 1 ] ]

let corw1_weak = reg_is 0 "a" 1

(* Arm: control dependencies to stores forbid LB. *)
let lb_arm_ctrl =
  prog "LB-arm+ctrls" [ ("X", 0); ("Y", 0) ]
    [
      [ ld "a" "X"; if_ (Eq (r "a", !1)) [ st "Y" 1 ] ];
      [ ld "b" "Y"; if_ (Eq (r "b", !1)) [ st "X" 1 ] ];
    ]

(* Arm: 2+2W with store-store fences. *)
let two_two_w_arm_dmbst =
  prog "2+2W-arm+dmbsts" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1; dmb_st; st "Y" 2 ];
      [ st "Y" 1; dmb_st; st "X" 2 ];
    ]

(* Arm is multi-copy atomic: IRIW with full fences is forbidden. *)
let iriw_arm_dmb =
  prog "IRIW-arm+dmbs" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ st "Y" 1 ];
      [ ld "a" "X"; dmb_full; ld "b" "Y" ];
      [ ld "c" "Y"; dmb_full; ld "d" "X" ];
    ]

let iriw_arm_plain =
  prog "IRIW-arm" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ st "Y" 1 ];
      [ ld "a" "X"; ld "b" "Y" ];
      [ ld "c" "Y"; ld "d" "X" ];
    ]

(* WRC on Arm: plain is weak; an acquire read in the final thread plus a
   data dependency in the middle one restores order. *)
let wrc_arm_plain =
  prog "WRC-arm" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ ld "a" "X"; st_e "Y" (r "a") ];
      [ ld "b" "Y"; ld "c" "X" ];
    ]

let wrc_arm_acq =
  prog "WRC-arm+data+acq" [ ("X", 0); ("Y", 0) ]
    [
      [ st "X" 1 ];
      [ ld "a" "X"; st_e "Y" (r "a") ];
      [ ld_acq "b" "Y"; ld "c" "X" ];
    ]

(* ------------------------------------------------------------------ *)
(* Suites                                                              *)

let sc_tests =
  [
    ("SC forbids SB weak", forbidden sb_weak sb_x86);
    ("SC forbids MP weak", forbidden mp_weak mp_x86);
    ("SC forbids LB weak", forbidden lb_weak lb_x86);
    ("SC forbids CoRR weak", forbidden corr_weak corr_x86);
    ("SC allows MP strong", allowed (reg_is 1 "a" 1 &&& reg_is 1 "b" 1) mp_x86);
  ]

let x86_tests =
  [
    ("x86 allows SB weak", allowed sb_weak sb_x86);
    ("x86 forbids SB+mfence weak", forbidden sb_weak sb_mfence_x86);
    ("x86 forbids MP weak", forbidden mp_weak mp_x86);
    ("x86 forbids LB weak", forbidden lb_weak lb_x86);
    ("x86 forbids CoRR weak", forbidden corr_weak corr_x86);
    ("x86 forbids 2+2W weak", forbidden two_plus_two_weak two_plus_two_w);
    ("x86 forbids IRIW weak", forbidden iriw_weak iriw_x86);
    ("x86 RMW acts as fence (SB+rmws)", forbidden sbq_weak sb_rmw_x86);
    ("x86 RMW atomicity", forbidden both_rmw_won rmw_atomicity_x86);
    ("x86 forbids S weak", forbidden s_weak s_x86);
    ("x86 forbids WRC weak", forbidden wrc_weak wrc_x86);
    ("x86 forbids CoWW weak", forbidden coww_weak coww);
    ("x86 forbids CoRW1 weak", forbidden corw1_weak corw1);
    ("x86 forbids MPQ weak", forbidden mpq_weak mpq_x86);
    ("x86 forbids SBQ weak", forbidden sbq_weak sbq_x86);
    ("x86 forbids SBAL weak", forbidden sbal_weak sbal_x86);
  ]

let arm_tests_common =
  [
    ("Arm allows MP weak", allowed mp_weak mp_arm);
    ("Arm forbids MP+dmbs weak", forbidden mp_weak mp_arm_dmb);
    ( "Arm forbids MP+dmbst+dmbld weak",
      forbidden mp_weak mp_arm_dmbst_dmbld );
    ("Arm allows MP+dmbst+ctrl weak", allowed mp_weak mp_arm_dmbst_ctrl);
    ("Arm forbids MP+rel+q weak", forbidden mp_weak mp_arm_rel_q);
    ("Arm allows LB weak", allowed lb_weak lb_arm);
    ("Arm forbids LB+datas weak", forbidden lb_arm_data_weak lb_arm_data);
    ("Arm allows SB weak", allowed sb_weak sb_arm);
    ("Arm forbids SB+dmbs weak", forbidden sb_weak sb_arm_dmb);
    ("Arm forbids CoRR weak", forbidden corr_weak corr_arm);
    ("Arm forbids CoWW weak", forbidden coww_weak coww);
    ("Arm forbids CoRW1 weak", forbidden corw1_weak corw1);
    ("Arm allows S weak", allowed s_weak s_x86);
    ("Arm forbids LB+ctrls weak", forbidden lb_weak lb_arm_ctrl);
    ("Arm forbids 2+2W+dmbsts weak", forbidden two_plus_two_weak two_two_w_arm_dmbst);
    ("Arm allows IRIW-shape only without fences", allowed iriw_weak iriw_arm_plain);
    ("Arm forbids IRIW+dmbs weak (MCA)", forbidden iriw_weak iriw_arm_dmb);
    ("Arm allows WRC weak", allowed wrc_weak wrc_arm_plain);
    ("Arm forbids WRC+data+acq weak", forbidden wrc_weak wrc_arm_acq);
    ("Arm allows MPQ-qemu weak (Qemu bug)", allowed mpq_weak mpq_qemu_arm);
    ("Arm allows SBQ-qemu weak (Qemu bug)", allowed sbq_weak sbq_qemu_arm);
    ( "Arm forbids Fig9-left with DMBFFs",
      forbidden fig9_left_weak fig9_left_arm_fenced );
    ( "Arm allows Fig9-left without DMBFFs",
      allowed fig9_left_weak fig9_left_arm_unfenced );
    ( "Arm forbids Fig9-right with DMBFFs",
      forbidden fig9_right_weak fig9_right_arm_fenced );
    ( "Arm allows Fig9-right without DMBFFs",
      allowed fig9_right_weak fig9_right_arm_unfenced );
  ]

let arm_tests_original =
  [ ("Arm(orig) allows SBAL weak", allowed sbal_weak sbal_armcats_arm) ]

let arm_tests_corrected =
  [ ("Arm(fixed) forbids SBAL weak", forbidden sbal_weak sbal_armcats_arm) ]

(* The verified mapping inserts no fence between a store and a later
   load: the x86-allowed SB outcome survives in the IR. *)
let sb_tcg_mapped =
  prog "SB-tcg-mapped" [ ("X", 0); ("Y", 0) ]
    [
      [ fence Axiom.Event.F_ww; st "X" 1; ld "a" "Y"; fence Axiom.Event.F_rm ];
      [ fence Axiom.Event.F_ww; st "Y" 1; ld "b" "X"; fence Axiom.Event.F_rm ];
    ]

let tcg_tests =
  [
    ("TCG forbids LB-IR weak", forbidden lb_weak lb_ir);
    ("TCG forbids MP-IR weak", forbidden mp_weak mp_ir);
    ("TCG allows MP plain weak", allowed mp_weak mp_tcg_plain);
    ("TCG forbids MP mapped weak", forbidden mp_weak mp_tcg_mapped);
    ("TCG allows SB plain weak", allowed sb_weak sb_tcg_plain);
    ("TCG forbids SB+Fwr weak", forbidden sb_weak sb_tcg_fwr);
    ("TCG allows SB mapped weak", allowed sb_weak sb_tcg_mapped);
    ("TCG RMW acts as fence (Fig9-right)", forbidden fig9_right_weak fig9_right_tcg);
    ("TCG forbids Fig9-left weak", forbidden fig9_left_weak fig9_left_tcg);
    ("TCG forbids FMR-src weak", forbidden fmr_weak fmr_tcg_src);
    ("TCG allows FMR-tgt weak (RAW unsound)", allowed fmr_weak fmr_tcg_tgt);
  ]

let mapping_corpus =
  [
    ("MP", mp_x86);
    ("SB", sb_x86);
    ("SB+mfences", sb_mfence_x86);
    ("LB", lb_x86);
    ("CoRR", corr_x86);
    ("2+2W", two_plus_two_w);
    ("IRIW", iriw_x86);
    ("SB+rmws", sb_rmw_x86);
    ("RMW-atomicity", rmw_atomicity_x86);
    ("S", s_x86);
    ("WRC", wrc_x86);
    ("CoWW", coww);
    ("CoRW1", corw1);
    ("MPQ", mpq_x86);
    ("SBQ", sbq_x86);
    ("SBAL", sbal_x86);
  ]

(* ------------------------------------------------------------------ *)
(* Atomics corpus: the SB, MP and SBAL shapes through LOCK XADD and    *)
(* XCHG, plus two RMWs racing on one location under a reader (which    *)
(* sees 3 only if both fetch-and-adds land).                           *)

let atomics_corpus =
  let shapes (rmw : ?reg:string -> string -> int -> instr) tag =
    [
      ( "SB+" ^ tag ^ "s",
        prog ("SB+" ^ tag ^ "s") [ ("X", 0); ("Y", 0); ("Z", 0); ("U", 0) ]
          [ [ st "X" 1; rmw "Z" 1; ld "a" "Y" ]; [ st "Y" 1; rmw "U" 1; ld "b" "X" ] ] );
      ( "MP+" ^ tag,
        prog ("MP+" ^ tag) [ ("X", 0); ("Y", 0) ]
          [ [ st "X" 1; rmw "Y" 1 ]; [ ld "a" "Y"; ld "b" "X" ] ] );
      ( "SBAL-" ^ tag,
        prog ("SBAL-" ^ tag) [ ("X", 0); ("Y", 0) ]
          [ [ rmw "X" 1; ld "a" "Y" ]; [ rmw "Y" 1; ld "b" "X" ] ] );
      ( "RMW-atomicity+" ^ tag,
        prog ("RMW-atomicity+" ^ tag) [ ("X", 0) ]
          [ [ rmw ~reg:"a" "X" 1 ]; [ rmw ~reg:"b" "X" 2 ]; [ ld "c" "X" ] ] );
    ]
  in
  shapes xadd_x86 "xadd" @ shapes xchg_x86 "xchg"
