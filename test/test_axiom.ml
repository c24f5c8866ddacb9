(* Tests for events, executions and the consistency models on
   hand-constructed execution graphs. *)

open Relalg
module E = Axiom.Event
module X = Axiom.Execution

let ev id tid label = { E.id; tid; label }
let read ?(ord = E.R_plain) id tid loc value = ev id tid (E.Read { loc; value; ord })
let write ?(ord = E.W_plain) id tid loc value = ev id tid (E.Write { loc; value; ord })
let fence id tid k = ev id tid (E.Fence k)
let init id loc value = write id E.init_tid loc value

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* One axiom of a model, decided on a whole execution. *)
let holds a x = Axiom.Model.prepare a x x

(* The canonical MP execution with the weak outcome:
   T0: Wx1; Wy1   T1: Ry1; Rx0 *)
let mp_weak ?(fences = []) () =
  let e_ix = init 0 "X" 0 and e_iy = init 1 "Y" 0 in
  let wx = write 10 0 "X" 1 and wy = write 11 0 "Y" 1 in
  let ry = read 20 1 "Y" 1 and rx = read 21 1 "X" 0 in
  let base_events = [ e_ix; e_iy; wx; wy; ry; rx ] in
  let events, po =
    match fences with
    | [ f0; f1 ] ->
        let fa = fence 12 0 f0 and fb = fence 22 1 f1 in
        ( base_events @ [ fa; fb ],
          Rel.of_list
            [ (10, 12); (12, 11); (10, 11); (20, 22); (22, 21); (20, 21) ] )
    | _ -> (base_events, Rel.of_list [ (10, 11); (20, 21) ])
  in
  {
    X.empty with
    X.events;
    po;
    rf = Rel.of_list [ (11, 20); (0, 21) ];
    co = Rel.of_list [ (0, 10); (1, 11) ];
  }

let test_event_predicates () =
  let r = read 1 0 "X" 0 in
  check_bool "read is read" true (E.is_read r);
  check_bool "read is mem" true (E.is_mem r);
  check_bool "read not write" false (E.is_write r);
  check_bool "fence" true (E.is_fence (fence 2 0 E.F_sc));
  check_bool "init" true (E.is_init (init 0 "X" 0));
  Alcotest.check Alcotest.(option string) "loc" (Some "X") (E.loc r);
  Alcotest.check Alcotest.(option int) "value" (Some 0) (E.value r)

let test_derived_relations () =
  let x = mp_weak () in
  check_bool "fr relates Rx0 to Wx1" true (Rel.mem 21 10 (X.fr x));
  check_bool "rfe external" true (Rel.mem 11 20 (X.rfe x));
  check_bool "rfi empty here" true (Rel.is_empty (X.rfi x));
  check_int "reads" 2 (Iset.cardinal (X.reads x));
  check_int "writes (incl. init)" 4 (Iset.cardinal (X.writes x))

let test_well_formed () =
  let x = mp_weak () in
  (match X.well_formed x with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected well-formed: %s" e);
  (* Break rf: read value mismatch. *)
  let bad = { x with X.rf = Rel.of_list [ (10, 20); (0, 21) ] } in
  check_bool "bad rf rejected" true (Result.is_error (X.well_formed bad));
  let no_src = { x with X.rf = Rel.of_list [ (11, 20) ] } in
  check_bool "missing rf rejected" true (Result.is_error (X.well_formed no_src))

let test_behaviour () =
  let x = mp_weak () in
  Alcotest.(check (list (pair string int)))
    "final memory" [ ("X", 1); ("Y", 1) ] (X.behaviour x)

let test_models_on_mp () =
  check_bool "common axioms hold" true
    (holds Axiom.Model.coherence (mp_weak ()) && holds Axiom.Model.atomicity (mp_weak ()));
  check_bool "SC forbids weak MP" false
    (Axiom.Sc_model.model.Axiom.Model.consistent (mp_weak ()));
  check_bool "x86 forbids weak MP" false
    (Axiom.X86_tso.model.Axiom.Model.consistent (mp_weak ()));
  check_bool "Arm allows weak MP" true
    ((Axiom.Arm_cats.model Axiom.Arm_cats.Corrected).Axiom.Model.consistent
       (mp_weak ()));
  check_bool "TCG allows weak MP" true
    (Axiom.Tcg_model.model.Axiom.Model.consistent (mp_weak ()))

let test_models_on_fenced_mp () =
  let arm = mp_weak ~fences:[ E.F_dmb_full; E.F_dmb_full ] () in
  check_bool "Arm forbids MP+dmbs" false
    ((Axiom.Arm_cats.model Axiom.Arm_cats.Corrected).Axiom.Model.consistent arm);
  let tcg = mp_weak ~fences:[ E.F_ww; E.F_rr ] () in
  check_bool "TCG forbids MP+Fww+Frr" false
    (Axiom.Tcg_model.model.Axiom.Model.consistent tcg);
  (* Weaker fences that do not order the accesses leave it allowed. *)
  let weak = mp_weak ~fences:[ E.F_rr; E.F_ww ] () in
  check_bool "TCG allows MP with wrong fences" true
    (Axiom.Tcg_model.model.Axiom.Model.consistent weak)

let test_sc_per_loc_violation () =
  (* Single thread: W X=1 then R X=0 from init — coherence violation. *)
  let x =
    {
      X.empty with
      X.events = [ init 0 "X" 0; write 10 0 "X" 1; read 11 0 "X" 0 ];
      po = Rel.of_list [ (10, 11) ];
      rf = Rel.of_list [ (0, 11) ];
      co = Rel.of_list [ (0, 10) ];
    }
  in
  check_bool "sc-per-loc catches stale read" false (holds Axiom.Model.coherence x)

(* T0: successful RMW on X (0→1); T1: W X=2 sneaking between. *)
let atomicity_broken () =
  {
    X.empty with
    X.events =
      [
        init 0 "X" 0;
        read ~ord:E.R_sc 10 0 "X" 0;
        write ~ord:E.W_sc 11 0 "X" 1;
        write 20 1 "X" 2;
      ];
    po = Rel.of_list [ (10, 11) ];
    rf = Rel.of_list [ (0, 10) ];
    co = Rel.of_list [ (0, 20); (20, 11); (0, 11) ];
    rmw_plain = Rel.of_list [ (10, 11) ];
  }

let test_atomicity_violation () =
  let x = atomicity_broken () in
  check_bool "atomicity violated" false (holds Axiom.Model.atomicity x);
  (* Move the interfering write after the RMW: fine. *)
  let ok =
    { x with X.co = Rel.of_list [ (0, 11); (11, 20); (0, 20) ] }
  in
  check_bool "atomicity holds" true (holds Axiom.Model.atomicity ok)

let test_arm_variants_differ_on_sbal () =
  (* SBAL from §3.3 via the enumerator is covered in test_litmus; here a
     direct check that the bob clauses differ. *)
  let amo_read = read ~ord:E.R_acq 10 0 "X" 0 in
  let amo_write = write ~ord:E.W_rel 11 0 "X" 1 in
  let later = read 12 0 "Y" 0 in
  let x =
    {
      X.empty with
      X.events = [ init 0 "X" 0; init 1 "Y" 0; amo_read; amo_write; later ];
      po = Rel.of_list [ (10, 11); (11, 12); (10, 12) ];
      rf = Rel.of_list [ (0, 10); (1, 12) ];
      co = Rel.of_list [ (0, 11) ];
      amo = Rel.of_list [ (10, 11) ];
    }
  in
  let lob_orig = Axiom.Arm_cats.lob Axiom.Arm_cats.Original x in
  let lob_fix = Axiom.Arm_cats.lob Axiom.Arm_cats.Corrected x in
  check_bool "original: amo write not ordered with later read" false
    (Rel.mem 11 12 lob_orig);
  check_bool "corrected: amo write ordered with later read" true
    (Rel.mem 11 12 lob_fix)

let test_explain () =
  let weak = mp_weak () in
  (match Axiom.Explain.check Axiom.X86_tso.model weak with
  | Axiom.Explain.Violates { axiom; cycle } ->
      Alcotest.(check string) "axiom named" "x86 (GHB)" axiom;
      check_bool "cycle nonempty" true (cycle <> [])
  | Axiom.Explain.Consistent -> Alcotest.fail "x86 should forbid weak MP");
  (match Axiom.Explain.check (Axiom.Arm_cats.model Axiom.Arm_cats.Corrected) weak with
  | Axiom.Explain.Consistent -> ()
  | Axiom.Explain.Violates _ -> Alcotest.fail "Arm allows weak MP");
  (* the fenced Arm variant is forbidden via ob *)
  match
    Axiom.Explain.check
      (Axiom.Arm_cats.model Axiom.Arm_cats.Corrected)
      (mp_weak ~fences:[ E.F_dmb_full; E.F_dmb_full ] ())
  with
  | Axiom.Explain.Violates { axiom; _ } ->
      Alcotest.(check string) "ob violated" "Arm (external: ob)" axiom
  | Axiom.Explain.Consistent -> Alcotest.fail "fenced MP should be forbidden"

(* The atomicity witness is the RMW pair [r; w]; its closing w→r edge
   reverses the fre;coe detour r→W X=2→w and prints as fr;co. *)
let test_explain_atomicity () =
  let x = atomicity_broken () in
  (match Axiom.Explain.check Axiom.Sc_model.model x with
  | Axiom.Explain.Violates { axiom; cycle } ->
      Alcotest.(check string) "axiom named" "atomicity" axiom;
      Alcotest.(check (list int)) "the RMW pair" [ 10; 11 ] cycle
  | Axiom.Explain.Consistent -> Alcotest.fail "SC should forbid the broken RMW");
  Alcotest.(check string) "opening edge" "rmw" (Axiom.Explain.edge_rel x 10 11);
  Alcotest.(check string) "closing edge" "fr;co" (Axiom.Explain.edge_rel x 11 10);
  let printed =
    Format.asprintf "@[<v>%a@]" (Axiom.Explain.pp_verdict x)
      (Axiom.Explain.check Axiom.Sc_model.model x)
  in
  check_bool "printed closing edge" true
    (String.ends_with ~suffix:"--fr;co--> (back to 10)\n" printed)

let test_explain_matches_models () =
  (* Explain's verdict agrees with the model's consistency on the MP
     and broken-RMW executions under every model, and names one of the
     model's axioms. *)
  List.iter
    (fun (_, (m : Axiom.Model.t)) ->
      List.iter
        (fun x ->
          match Axiom.Explain.check m x with
          | Axiom.Explain.Consistent -> check_bool "agreement" true (m.consistent x)
          | Axiom.Explain.Violates { axiom; _ } ->
              check_bool "agreement" false (m.consistent x);
              check_bool "a model axiom" true
                (List.exists (fun (a : Axiom.Model.axiom) -> a.name = axiom) m.axioms))
        [
          mp_weak ();
          mp_weak ~fences:[ E.F_dmb_full; E.F_dmb_full ] ();
          atomicity_broken ();
        ])
    Axiom.Models.by_name

let () =
  Alcotest.run "axiom"
    [
      ( "events",
        [ Alcotest.test_case "predicates" `Quick test_event_predicates ] );
      ( "executions",
        [
          Alcotest.test_case "derived relations" `Quick test_derived_relations;
          Alcotest.test_case "well-formedness" `Quick test_well_formed;
          Alcotest.test_case "behaviour" `Quick test_behaviour;
        ] );
      ( "models",
        [
          Alcotest.test_case "MP across models" `Quick test_models_on_mp;
          Alcotest.test_case "fenced MP" `Quick test_models_on_fenced_mp;
          Alcotest.test_case "sc-per-loc" `Quick test_sc_per_loc_violation;
          Alcotest.test_case "atomicity" `Quick test_atomicity_violation;
          Alcotest.test_case "Arm-Cats variants (casal bob)" `Quick
            test_arm_variants_differ_on_sbal;
        ] );
      ( "explain",
        [
          Alcotest.test_case "cycle reporting" `Quick test_explain;
          Alcotest.test_case "atomicity witness edges" `Quick test_explain_atomicity;
          Alcotest.test_case "agrees with models" `Quick
            test_explain_matches_models;
        ] );
    ]
