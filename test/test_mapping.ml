(* The mapping layer: fence algebra, Theorem-1 refinement of every
   scheme over the corpus, and the Figure-10 transformation soundness —
   including the expected violations (the paper's bug reports). *)

module E = Axiom.Event
module S = Mapping.Schemes

let check_bool = Alcotest.check Alcotest.bool

let x86 = Axiom.X86_tso.model
let tcg = Axiom.Tcg_model.model
let arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original
let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected
let corpus = Litmus.Catalog.mapping_corpus

(* ------------------------------------------------------------------ *)
(* Fence algebra                                                       *)

let fence = Alcotest.testable E.pp_fence ( = )

let test_fence_merge () =
  Alcotest.check fence "Frr+Frw = Frm" E.F_rm (Mapping.Fence_alg.merge E.F_rr E.F_rw);
  Alcotest.check fence "Frm+Fww covers rr,rw,ww -> Fmm" E.F_mm
    (Mapping.Fence_alg.merge E.F_rm E.F_ww);
  Alcotest.check fence "Fsc absorbs" E.F_sc (Mapping.Fence_alg.merge E.F_sc E.F_rr);
  Alcotest.check fence "merge idempotent" E.F_ww
    (Mapping.Fence_alg.merge E.F_ww E.F_ww);
  check_bool "Fsc subsumes Fmm" true (Mapping.Fence_alg.subsumes E.F_sc E.F_mm);
  check_bool "Frr does not subsume Fww" false
    (Mapping.Fence_alg.subsumes E.F_rr E.F_ww)

let tcg_fences =
  [ E.F_rr; E.F_rw; E.F_rm; E.F_wr; E.F_ww; E.F_wm; E.F_mr; E.F_mw; E.F_mm; E.F_acq; E.F_rel; E.F_sc ]

let arb_fence = QCheck.oneofl tcg_fences

let prop_merge_dominates =
  QCheck.Test.make ~name:"merge dominates both operands" ~count:200
    QCheck.(pair arb_fence arb_fence)
    (fun (f1, f2) ->
      let m = Mapping.Fence_alg.merge f1 f2 in
      Mapping.Fence_alg.subsumes m f1 && Mapping.Fence_alg.subsumes m f2)

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:200
    QCheck.(pair arb_fence arb_fence)
    (fun (f1, f2) ->
      Mapping.Fence_alg.merge f1 f2 = Mapping.Fence_alg.merge f2 f1)

let prop_merge_assoc =
  QCheck.Test.make ~name:"merge associative" ~count:200
    QCheck.(triple arb_fence arb_fence arb_fence)
    (fun (f1, f2, f3) ->
      Mapping.Fence_alg.merge f1 (Mapping.Fence_alg.merge f2 f3)
      = Mapping.Fence_alg.merge (Mapping.Fence_alg.merge f1 f2) f3)

(* ------------------------------------------------------------------ *)
(* Theorem-1 refinement of the schemes                                 *)

let expect_scheme ?(corpus = corpus) ~name f ~src_model ~tgt_model ~expected_failures =
  let reports =
    Mapping.Check.check_scheme ~name f ~src_model ~tgt_model corpus
  in
  List.iter2
    (fun (tname, _) report ->
      let should_fail = List.mem tname expected_failures in
      if report.Mapping.Check.ok && should_fail then
        Alcotest.failf "%s on %s: expected a violation, got none" name tname;
      if (not report.Mapping.Check.ok) && not should_fail then
        Alcotest.failf "%s on %s: unexpected violation (%d extra behaviours)"
          name tname
          (List.length report.Mapping.Check.extra))
    corpus reports

let test_risotto_frontend () =
  expect_scheme ~name:"x86->tcg (Fig 7a)" (S.x86_to_tcg S.Risotto_frontend)
    ~src_model:x86 ~tgt_model:tcg ~expected_failures:[]

let test_qemu_frontend_mpq_at_ir () =
  (* A finding beyond the paper's §3.2 presentation: under the Figure-6
     TCG model, Qemu's Fmr/Fmw frontend is already unsound at the IR
     level on MPQ — a *failed* RMW generates an Rsc read that is ordered
     only with its po-successors, and no Fmr precedes it, so the plain
     load before it can be reordered past it exactly as on Arm.  The
     verified Figure-7a scheme avoids this with the trailing Frm. *)
  expect_scheme ~name:"x86->tcg (Fig 2)" (S.x86_to_tcg S.Qemu_frontend)
    ~src_model:x86 ~tgt_model:tcg ~expected_failures:[ "MPQ" ]

let test_risotto_rmw2_end_to_end () =
  let fe, be = S.risotto_rmw2_preset in
  expect_scheme ~name:"risotto rmw2 vs Arm(orig)" (S.x86_to_arm fe be)
    ~src_model:x86 ~tgt_model:arm_orig ~expected_failures:[];
  expect_scheme ~name:"risotto rmw2 vs Arm(fixed)" (S.x86_to_arm fe be)
    ~src_model:x86 ~tgt_model:arm_fix ~expected_failures:[]

let test_risotto_casal_needs_corrected_model () =
  let fe, be = S.risotto_casal_preset in
  (* Under the original Arm-Cats model, casal is not a full barrier.
     Only SBAL exposes it: its threads have no event po-before the RMW,
     so the original po;[A];amo;[L];po clause is vacuous there, while
     SBQ/SB+rmws (with a store before the RMW) are still ordered.  This
     is exactly the paper's §3.3 counterexample. *)
  expect_scheme ~name:"risotto casal vs Arm(orig)" (S.x86_to_arm fe be)
    ~src_model:x86 ~tgt_model:arm_orig ~expected_failures:[ "SBAL" ];
  expect_scheme ~name:"risotto casal vs Arm(fixed)" (S.x86_to_arm fe be)
    ~src_model:x86 ~tgt_model:arm_fix ~expected_failures:[]

let test_qemu_gcc10_mpq_bug () =
  (* §3.2 error 1: RMW1_AL helper: MPQ exhibits the forbidden outcome
     even under the corrected model. *)
  let fe, be = S.qemu_preset in
  expect_scheme ~name:"qemu gcc10 vs Arm(fixed)" (S.x86_to_arm fe be)
    ~src_model:x86 ~tgt_model:arm_fix ~expected_failures:[ "MPQ" ]

let test_qemu_gcc9_sbq_bug () =
  (* §3.2 error 2: RMW2_AL helper: store-load shapes through RMWs break. *)
  expect_scheme ~name:"qemu gcc9 vs Arm(fixed)"
    (S.x86_to_arm S.Qemu_frontend (S.backend S.Qemu_frontend S.Helper_gcc9))
    ~src_model:x86 ~tgt_model:arm_fix
    ~expected_failures:[ "MPQ"; "SB+rmws"; "SBQ"; "SBAL" ]

let test_armcats_direct_sbal_bug () =
  (* §3.3: the intended Figure-3 mapping is wrong under the original
     model (SBAL) and right under the corrected one. *)
  expect_scheme ~name:"armcats direct vs Arm(orig)" S.x86_to_arm_direct_armcats
    ~src_model:x86 ~tgt_model:arm_orig ~expected_failures:[ "SBAL" ];
  expect_scheme ~name:"armcats direct vs Arm(fixed)" S.x86_to_arm_direct_armcats
    ~src_model:x86 ~tgt_model:arm_fix ~expected_failures:[]

let test_no_fences_is_incorrect () =
  expect_scheme ~name:"no-fences vs Arm(fixed)"
    (S.x86_to_arm S.No_fences_frontend
       (S.backend S.No_fences_frontend S.Risotto_rmw1))
    ~src_model:x86 ~tgt_model:arm_fix
    ~expected_failures:[ "MP"; "LB"; "2+2W"; "IRIW"; "S"; "WRC"; "MPQ" ]

(* ------------------------------------------------------------------ *)
(* Atomics corpus: LOCK XADD and XCHG through the RMW table            *)

let atomics = Litmus.Catalog.atomics_corpus

(* The store-buffer machine is an independent x86 semantics for the
   new RMW forms: fetch-and-add and exchange always write, so it must
   agree exactly with the axiomatic model. *)
let test_atomics_tso_oracle () =
  List.iter
    (fun (_, p) ->
      Result.iter_error Alcotest.fail (Checker_corpus.tso_against_axiomatic ~exact:true p))
    atomics

(* Risotto's two inline lowerings: RMW2 holds under both Arm-Cats
   models; RMW1 (LDADDAL, SWPAL) fails exactly the SBAL shapes under
   the original model, as casal does on SBAL (§3.3). *)
let test_atomics_rmw_lowerings () =
  List.iter
    (fun (rmw, rname, tgt_model, expected_failures) ->
      expect_scheme ~corpus:atomics
        ~name:(rname ^ " vs " ^ tgt_model.Axiom.Model.name)
        (S.x86_to_arm S.Risotto_frontend (S.backend S.Risotto_frontend rmw))
        ~src_model:x86 ~tgt_model ~expected_failures)
    [
      (S.Risotto_rmw2, "rmw2", arm_orig, []);
      (S.Risotto_rmw2, "rmw2", arm_fix, []);
      (S.Risotto_rmw1, "rmw1", arm_orig, [ "SBAL-xadd"; "SBAL-xchg" ]);
      (S.Risotto_rmw1, "rmw1", arm_fix, []);
    ]

(* Each DBT preset's (fences, rmw) composes to the same Arm program as
   the sweep cell that verifies it, on every corpus program. *)
let test_dbt_presets_are_verified_cells () =
  let cell name =
    (List.find
       (fun (e : Report.Sweep.entry) -> e.scheme = name)
       (Report.Sweep.mapping_entries ()))
      .f
  in
  List.iter
    (fun ((c : Core.Config.t), scheme) ->
      let dbt = S.x86_to_arm c.fences (S.backend c.fences c.rmw) in
      List.iter
        (fun (pname, p) ->
          if dbt p <> cell scheme p then
            Alcotest.failf "%s and %s differ on %s" c.name scheme pname)
        corpus)
    [
      (Core.Config.qemu, "qemu-gcc10/arm-fix");
      (Core.Config.no_fences, "no-fences/arm-fix");
      (Core.Config.tcg_ver, "risotto-casal/arm-fix");
      (Core.Config.risotto, "risotto-casal/arm-fix");
    ]

(* Every fence named in a Figure 7b row lowers, under the Risotto
   backend, to the Arm fence its cell prints ("-" = no fence). *)
let test_figure7b_fence_cells () =
  let fences =
    E.[ F_rr; F_rw; F_rm; F_wr; F_ww; F_wm; F_mr; F_mw; F_mm; F_acq; F_rel; F_sc ]
  in
  let expected f =
    match S.lower_fence (S.lowering S.Risotto_frontend) f with
    | Some E.F_dmb_ld -> "DMBLD"
    | Some E.F_dmb_st -> "DMBST"
    | Some _ -> "DMBFF"
    | None -> "-"
  in
  let listed =
    List.concat_map
      (fun (label, cell) ->
        List.filter_map
          (fun name ->
            List.find_opt (fun f -> E.fence_name f = name) fences
            |> Option.map (fun f ->
                   Alcotest.(check string) ("Fig 7b cell of " ^ name) (expected f) cell;
                   f))
          (String.split_on_char '/' label))
      S.figure7b_rows
  in
  check_bool "Fig 7b lists fence rows" true (List.length listed >= 9)

(* The DBT's memory-access optimizer crosses exactly the fences the
   crossing table lists for each fenced elimination. *)
let test_memopt_follows_crossing_table () =
  let module Op = Tcg.Op in
  let module T = Mapping.Transform in
  let g0 = Op.guest_reg 0 and g1 = Op.guest_reg 1 and g2 = Op.guest_reg 2 in
  let eliminated rule f =
    let first, second =
      match rule with
      | T.F_raw -> (Op.St (g0, g1, 0L), Op.Ld (g2, g1, 0L))
      | T.F_rar -> (Op.Ld (g0, g1, 0L), Op.Ld (g2, g1, 0L))
      | _ -> (Op.St (g0, g1, 0L), Op.St (g2, g1, 0L))
    in
    let ops = [| first; Op.mb f; second |] in
    Tcg.Pipeline.run_pass Tcg.Pipeline.Mem_elim ops <> ops
  in
  List.iter
    (fun rule ->
      List.iter
        (fun f ->
          check_bool
            (Printf.sprintf "%s across %s" (T.rule_name rule) (E.fence_name f))
            (List.mem f (T.crossable rule)) (eliminated rule f))
        E.
          [
            F_rr; F_rw; F_rm; F_wr; F_ww; F_wm; F_mr; F_mw; F_mm; F_acq;
            F_rel; F_sc;
          ])
    [ T.F_rar; T.F_raw; T.F_waw ]

(* ------------------------------------------------------------------ *)
(* Minimality (§5.4, Figures 8/9)                                      *)

let test_minimality_helpers () =
  let p = Litmus.Catalog.fmr_tcg_src in
  Alcotest.(check int) "FMR has 3 fences" 3 (Mapping.Minimality.fence_count p);
  let p' = Mapping.Minimality.delete_fence p 0 in
  Alcotest.(check int) "one fewer" 2 (Mapping.Minimality.fence_count p')

(* Weaken a scheme by dropping every fence of one kind from its output. *)
let drop_kind k scheme p =
  Litmus.Ast.map_instrs
    (function
      | Litmus.Ast.Fence f when f = k -> []
      | i -> [ i ])
    (scheme p)

let breaks_somewhere scheme ~src_model ~tgt_model =
  List.exists
    (fun (_, src) ->
      not
        (Mapping.Check.refines ~src_model ~tgt_model ~src ~tgt:(scheme src))
          .Mapping.Check.ok)
    corpus

let test_x86_to_ir_scheme_minimal () =
  (* §5.4 / Figure 8: dropping the trailing Frm (the load rule) or the
     leading Fww (the store rule) from the verified scheme breaks some
     corpus program — every rule is load-bearing. *)
  let base = S.x86_to_tcg S.Risotto_frontend in
  check_bool "scheme itself refines" false
    (breaks_somewhere base ~src_model:x86 ~tgt_model:tcg);
  check_bool "without Frm: broken (LB/MP reader)" true
    (breaks_somewhere (drop_kind Axiom.Event.F_rm base) ~src_model:x86
       ~tgt_model:tcg);
  check_bool "without Fww: broken (MP writer)" true
    (breaks_somewhere (drop_kind Axiom.Event.F_ww base) ~src_model:x86
       ~tgt_model:tcg);
  check_bool "without Fsc: broken (SB+mfences)" true
    (breaks_somewhere (drop_kind Axiom.Event.F_sc base) ~src_model:x86
       ~tgt_model:tcg)

let test_ir_to_arm_rmw_fences_minimal () =
  (* Figure 9: the leading DMBFF is needed for the 2+2W-through-RMW
     shape, the trailing one for the SB-through-RMW shape. *)
  let drop_leading code =
    let rec go = function
      | Litmus.Ast.Fence _ :: (Litmus.Ast.Rmw _ :: _ as rest) -> go rest
      | i :: rest -> i :: go rest
      | [] -> []
    in
    go code
  in
  let drop_trailing code =
    let rec go = function
      | (Litmus.Ast.Rmw _ as c) :: Litmus.Ast.Fence _ :: rest -> c :: go rest
      | i :: rest -> i :: go rest
      | [] -> []
    in
    go code
  in
  let weaken f (p : Litmus.Ast.prog) =
    {
      p with
      threads =
        List.map
          (fun (t : Litmus.Ast.thread) -> { t with code = f t.code })
          p.Litmus.Ast.threads;
    }
  in
  let lower = S.tcg_to_arm { S.lowering = `Risotto; rmw = S.Risotto_rmw2 } in
  let check_prog name src variant expect_break =
    let tgt = variant (lower src) in
    let r = Mapping.Check.refines ~src_model:tcg ~tgt_model:arm_fix ~src ~tgt in
    check_bool name expect_break (not r.Mapping.Check.ok)
  in
  check_prog "Fig9-left full scheme refines" Litmus.Catalog.fig9_left_tcg
    (fun p -> p)
    false;
  check_prog "Fig9-right full scheme refines" Litmus.Catalog.fig9_right_tcg
    (fun p -> p)
    false;
  check_prog "Fig9-left breaks without leading DMBFF"
    Litmus.Catalog.fig9_left_tcg (weaken drop_leading) true;
  check_prog "Fig9-right breaks without trailing DMBFF"
    Litmus.Catalog.fig9_right_tcg (weaken drop_trailing) true

let test_some_fences_redundant_in_sb () =
  (* Per-token deletions are program-relative: in SB's image the
     trailing Frm after the last load is not load-bearing. *)
  let src = List.assoc "SB" corpus in
  let sites =
    Mapping.Minimality.necessary_fences
      (S.x86_to_tcg S.Risotto_frontend)
      ~src_model:x86 ~tgt_model:tcg src
  in
  Alcotest.(check bool) "some fence is redundant in SB" true
    (List.exists (fun s -> not s.Mapping.Minimality.necessary) sites)

(* ------------------------------------------------------------------ *)
(* Figure-10 transformations                                           *)

let test_transform_soundness () =
  List.iter
    (fun rule ->
      List.iter
        (fun (name, p) ->
          List.iter
            (fun r ->
              (* The only expected violation: RAW on the FMR program
                 (the §3.2 counterexample). *)
              let expected_violation =
                rule = Mapping.Transform.Raw && name = "FMR"
              in
              if r.Mapping.Check.ok && expected_violation then
                Alcotest.fail "RAW on FMR: expected the paper's violation";
              if (not r.Mapping.Check.ok) && not expected_violation then
                Alcotest.failf "%s on %s: unexpected violation"
                  (Mapping.Transform.rule_name rule)
                  name)
            (Mapping.Transform.soundness rule p))
        Mapping.Transform.corpus)
    Mapping.Transform.all_rules

let test_transform_sites_exist () =
  let count rule name =
    List.length (Mapping.Transform.applications rule (List.assoc name Mapping.Transform.corpus))
  in
  Alcotest.(check bool) "RAR applies" true (count Mapping.Transform.Rar "MP+RAR" > 0);
  Alcotest.(check bool) "WAW applies" true (count Mapping.Transform.Waw "WAW-local" > 0);
  Alcotest.(check bool) "F-RAR applies" true (count Mapping.Transform.F_rar "F-RAR" > 0);
  Alcotest.(check bool) "merge applies" true
    (count Mapping.Transform.Fence_merge "merge-Frm-Fww" > 0);
  Alcotest.(check bool) "reorder applies" true
    (count Mapping.Transform.Reorder "reorder-st-ld" > 0);
  Alcotest.(check bool) "false-dep applies" true
    (count Mapping.Transform.False_dep_elim "false-dep" > 0)

let test_fmr_counterexample_witness () =
  (* Applying RAW to FMR-src yields exactly the paper's FMR-tgt
     behaviour expansion. *)
  let apps = Mapping.Transform.applications Mapping.Transform.Raw Litmus.Catalog.fmr_tcg_src in
  Alcotest.(check bool) "RAW site found in FMR" true (apps <> []);
  let violations =
    List.filter (fun r -> not r.Mapping.Check.ok)
      (Mapping.Transform.soundness Mapping.Transform.Raw Litmus.Catalog.fmr_tcg_src)
  in
  Alcotest.(check bool) "violation found" true (violations <> [])

let () =
  Alcotest.run "mapping"
    [
      ( "fence algebra",
        [
          Alcotest.test_case "merge table" `Quick test_fence_merge;
          QCheck_alcotest.to_alcotest prop_merge_dominates;
          QCheck_alcotest.to_alcotest prop_merge_commutative;
          QCheck_alcotest.to_alcotest prop_merge_assoc;
        ] );
      ( "Theorem 1 (refinement)",
        [
          Alcotest.test_case "Fig 7a x86->IR verified" `Slow test_risotto_frontend;
          Alcotest.test_case "Fig 2 frontend MPQ at IR" `Slow
            test_qemu_frontend_mpq_at_ir;
          Alcotest.test_case "risotto rmw2 end-to-end" `Slow
            test_risotto_rmw2_end_to_end;
          Alcotest.test_case "casal needs corrected Arm-Cats" `Slow
            test_risotto_casal_needs_corrected_model;
          Alcotest.test_case "Qemu gcc10 MPQ bug (§3.2)" `Slow
            test_qemu_gcc10_mpq_bug;
          Alcotest.test_case "Qemu gcc9 SBQ bug (§3.2)" `Slow
            test_qemu_gcc9_sbq_bug;
          Alcotest.test_case "Arm-Cats SBAL bug (§3.3)" `Slow
            test_armcats_direct_sbal_bug;
          Alcotest.test_case "no-fences incorrect" `Slow
            test_no_fences_is_incorrect;
          Alcotest.test_case "Fig 7b fence cells follow lower_fence" `Quick
            test_figure7b_fence_cells;
          Alcotest.test_case "DBT presets run verified cells" `Quick
            test_dbt_presets_are_verified_cells;
          Alcotest.test_case "mem-elim follows the crossing table" `Quick
            test_memopt_follows_crossing_table;
        ] );
      ( "atomics corpus",
        [
          Alcotest.test_case "TSO machine = axiomatic x86" `Quick test_atomics_tso_oracle;
          Alcotest.test_case "RMW1/RMW2 x Arm-Cats orig/fixed" `Quick
            test_atomics_rmw_lowerings;
        ] );
      ( "minimality (Fig 8/9)",
        [
          Alcotest.test_case "helpers" `Quick test_minimality_helpers;
          Alcotest.test_case "x86->IR scheme rules necessary (Fig 8)" `Slow
            test_x86_to_ir_scheme_minimal;
          Alcotest.test_case "IR->Arm RMW DMBFFs necessary (Fig 9)" `Slow
            test_ir_to_arm_rmw_fences_minimal;
          Alcotest.test_case "redundancy is program-relative" `Slow
            test_some_fences_redundant_in_sb;
        ] );
      ( "Figure 10 transformations",
        [
          Alcotest.test_case "soundness incl. FMR violation" `Slow
            test_transform_soundness;
          Alcotest.test_case "rules fire" `Quick test_transform_sites_exist;
          Alcotest.test_case "FMR counterexample" `Slow
            test_fmr_counterexample_witness;
        ] );
    ]
