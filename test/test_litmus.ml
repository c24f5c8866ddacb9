(* The litmus engine against the ground-truth catalog: this is the
   executable form of the paper's model-level claims (§2.1, §3.2, §3.3,
   Figures 8/9). *)

open Litmus
module E = Axiom.Event

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let suite_of_catalog model tests =
  List.map
    (fun (name, test) ->
      Alcotest.test_case name `Quick (fun () ->
          let v = Enumerate.check model test in
          if not v.Enumerate.ok then
            Alcotest.failf "%s: %d consistent behaviours, witnesses: %a" name
              v.Enumerate.total_consistent
              (Fmt.list Enumerate.pp_behaviour)
              v.Enumerate.witnesses))
    tests

(* ------------------------------------------------------------------ *)
(* Enumerator internals                                                *)

let test_universe () =
  let p = Catalog.mp_x86 in
  Alcotest.(check (list int)) "MP universe" [ 0; 1 ] (Enumerate.universe p);
  let p2 =
    Dsl.prog "u" [ ("X", 3) ] [ [ Dsl.st "X" 7; Dsl.ld "a" "X" ] ]
  in
  Alcotest.(check (list int)) "constants + init + 0" [ 0; 3; 7 ]
    (Enumerate.universe p2)

(* A read sees every value a store can compute, through a chain of
   computed stores, an assignment and a fetch-and-add of a register:
   each program's allowed outcome needs a value no constant or initial
   value names. *)
let test_computed_values () =
  List.iter
    (fun src ->
      let t = Parser.parse src in
      List.iter
        (fun m ->
          let v = Enumerate.check m t in
          if not v.Enumerate.ok then
            Alcotest.failf "%s under %s: %d consistent behaviours" t.prog.name
              m.Axiom.Model.name v.Enumerate.total_consistent)
        [ Axiom.Sc_model.model; Axiom.X86_tso.model ])
    [
      {|test computed
init X=1 Y=0
thread P0 { ld a, X
  st Y, (a + 1) }
thread P1 { ld b, Y }
allowed (1:b=2)|};
      {|test computed-chain
init X=1 Y=0 Z=0
thread P0 { ld a, X
  st Y, (a + 1) }
thread P1 { ld b, Y
  c := b * 3
  st Z, c }
thread P2 { ld d, Z }
allowed (2:d=6)|};
      {|test xadd-register
init X=2 Y=5
thread P0 { ld a, X
  xadd.x86 Y, a }
thread P1 { ld b, Y }
allowed (1:b=7)|};
    ]

let test_candidate_counts () =
  (* Single store, single load, one location: the load reads either the
     init or the store; co is fixed. *)
  let p = Dsl.prog "c" [ ("X", 0) ] [ [ Dsl.st "X" 1 ]; [ Dsl.ld "a" "X" ] ] in
  check_int "two candidates" 2 (List.length (Enumerate.candidates p));
  let bs = Enumerate.behaviours Axiom.Sc_model.model p in
  check_int "two behaviours under SC" 2 (List.length bs)

let test_all_candidates_well_formed () =
  List.iter
    (fun (_, p) ->
      List.iter
        (fun (x, _) ->
          match Axiom.Execution.well_formed x with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: ill-formed candidate: %s" p.Ast.name e)
        (Enumerate.candidates p))
    [ ("MP", Catalog.mp_x86); ("MPQ", Catalog.mpq_x86); ("SBAL", Catalog.sbal_x86) ]

let test_registers_in_behaviour () =
  let p = Dsl.prog "r" [ ("X", 5) ] [ [ Dsl.ld "a" "X"; Dsl.assign "b" (Ast.Add (Ast.Reg "a", Ast.Int 1)) ] ] in
  match Enumerate.behaviours Axiom.Sc_model.model p with
  | [ b ] ->
      Alcotest.(check (option int)) "a=5" (Some 5) (List.assoc_opt (0, "a") b.Enumerate.regs);
      Alcotest.(check (option int)) "b=6" (Some 6) (List.assoc_opt (0, "b") b.Enumerate.regs)
  | bs -> Alcotest.failf "expected one behaviour, got %d" (List.length bs)

let test_if_branches () =
  let p =
    Dsl.prog "if" [ ("X", 0) ]
      [
        [ Dsl.st "X" 1 ];
        [
          Dsl.ld "a" "X";
          Dsl.if_else
            (Ast.Eq (Ast.Reg "a", Ast.Int 1))
            [ Dsl.assign "b" (Ast.Int 10) ]
            [ Dsl.assign "b" (Ast.Int 20) ];
        ];
      ]
  in
  let bs = Enumerate.behaviours Axiom.Sc_model.model p in
  let has cond = List.exists (Enumerate.eval_cond cond) bs in
  check_bool "taken branch" true
    (has Ast.(And (Reg_is (1, "a", 1), Reg_is (1, "b", 10))));
  check_bool "else branch" true
    (has Ast.(And (Reg_is (1, "a", 0), Reg_is (1, "b", 20))));
  check_bool "no mixed outcome" false
    (has Ast.(And (Reg_is (1, "a", 1), Reg_is (1, "b", 20))))

let test_failed_cas_generates_read_only () =
  let p =
    Dsl.prog "cas-fail" [ ("X", 5) ] [ [ Dsl.cas_x86 ~reg:"a" "X" 0 1 ] ]
  in
  let bs = Enumerate.behaviours Axiom.Sc_model.model p in
  check_int "one behaviour" 1 (List.length bs);
  check_bool "X unchanged, a=5" true
    (List.for_all
       (Enumerate.eval_cond Ast.(And (Loc_is ("X", 5), Reg_is (0, "a", 5))))
       bs)

let test_cond_eval () =
  let b = { Enumerate.mem = [ ("X", 1) ]; regs = [ ((0, "a"), 2) ] } in
  check_bool "loc" true (Enumerate.eval_cond (Ast.Loc_is ("X", 1)) b);
  check_bool "reg" true (Enumerate.eval_cond (Ast.Reg_is (0, "a", 2)) b);
  check_bool "missing reg" false (Enumerate.eval_cond (Ast.Reg_is (1, "a", 2)) b);
  check_bool "not" true
    (Enumerate.eval_cond (Ast.Not (Ast.Loc_is ("X", 0))) b);
  check_bool "or" true
    (Enumerate.eval_cond (Ast.Or (Ast.Loc_is ("X", 0), Ast.True)) b)

let test_ast_helpers () =
  let p = Catalog.sbq_x86 in
  Alcotest.(check (list string))
    "locations" [ "U"; "X"; "Y"; "Z" ] (Ast.locations p);
  Alcotest.(check (list string))
    "registers of thread 0" [ "a" ]
    (Ast.registers (List.nth p.Ast.threads 0))


(* ------------------------------------------------------------------ *)
(* Dense event ids                                                     *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* [n] stores in a branch that never runs, after one init write: the
   static bound, not the run, decides whether the ids fit in 0..62. *)
let dead_branch_prog name n =
  Dsl.prog name [ ("X", 0) ]
    [ [ Dsl.if_else (Ast.Int 0) (List.init n (fun i -> Dsl.st "X" i)) [] ] ]

let test_event_bound () =
  check_int "63 ids fit" 1 (List.length (Enumerate.candidates (dead_branch_prog "fits" 62)));
  let p = dead_branch_prog "too-many-events" 63 in
  List.iter
    (fun (what, run) ->
      match run () with
      | () -> Alcotest.failf "%s enumerated a program past id 62" what
      | exception Invalid_argument msg ->
          check_bool (what ^ " names the program") true (contains msg "too-many-events"))
    [
      ("candidates", fun () -> ignore (Enumerate.candidates p));
      ("behaviours", fun () -> ignore (Enumerate.behaviours Axiom.Sc_model.model p));
    ]

let test_event_bound_supervised () =
  (* The sweep runner behind [litmus_run --report] turns the refusal
     into a typed per-cell failure and still checks the other cells. *)
  let entry =
    List.find
      (fun (e : Report.Sweep.entry) -> e.scheme = "fig7a/x86->tcg")
      (Report.Sweep.default_entries ())
  in
  let corpus = [ ("too-many-events", dead_branch_prog "too-many-events" 63); ("MP", Catalog.mp_x86) ] in
  let j = (Report.Sweep.run_generated [ { entry with corpus } ]).Report.Sweep.gen_journaled in
  (match j.Report.Sweep.failures with
  | [ (_, "too-many-events", Parallel.Supervise.Quarantined { last; _ }) ] ->
      check_bool "the refusal is the recorded fault" true
        (match last.Parallel.Pool.exn with
        | Invalid_argument msg -> contains msg "too-many-events"
        | _ -> false)
  | _ -> Alcotest.fail "expected one quarantined cell for too-many-events");
  Alcotest.(check (list string))
    "the other cell has a verdict" [ "MP" ]
    (List.map (fun (c : Report.Sweep.cell) -> c.Report.Sweep.program) j.Report.Sweep.cells)

(* A pass derives a zipping image's runs from the source's runs.  Here
   every image leads each thread with a [dmb st], which orders nothing
   these shapes need but shifts every event id: the image's data and
   ctrl dependencies, RMW pairs and ords must follow its own events, or
   its verdicts would differ from the image enumerated alone. *)
let test_derived_runs () =
  let arm = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected in
  let shifted kind (p : Ast.prog) =
    let rec relabel = function
      | Ast.Rmw r -> Ast.Rmw { r with kind }
      | Ast.If i -> Ast.If { i with then_ = List.map relabel i.then_; else_ = List.map relabel i.else_ }
      | i -> i
    in
    {
      p with
      name = p.name ^ "+dmb.st";
      threads =
        List.map
          (fun (t : Ast.thread) -> { t with code = Dsl.dmb_st :: List.map relabel t.code })
          p.threads;
    }
  in
  let lb =
    Dsl.prog "LB+data+ctrl" [ ("X", 0); ("Y", 0) ]
      [
        [ Dsl.ld "a" "X"; Dsl.st_e "Y" (Ast.Reg "a") ];
        [ Dsl.ld "b" "Y"; Dsl.if_ (Ast.Reg "b") [ Dsl.st "X" 1 ] ];
      ]
  and rmws =
    Dsl.prog "SB+RMWs" [ ("X", 0); ("Y", 0) ]
      [
        [ Dsl.xadd_x86 ~reg:"a" "X" 1; Dsl.ld "b" "Y" ];
        [ Dsl.xchg_x86 ~reg:"c" "Y" 2; Dsl.cas_x86 ~reg:"d" "X" 0 5; Dsl.ld "e" "X" ];
      ]
  in
  List.iter
    (fun (src, img) ->
      check_bool (img.Ast.name ^ " zips") true (Enumerate.zips src img);
      let shared = Enumerate.pass ~probe:true src [ (src, [ arm ]); (img, [ arm ]) ] in
      if List.nth shared 1 <> Enumerate.behaviours_probed_many [ arm ] img then
        Alcotest.failf "%s: the pass's verdicts differ from the image alone" img.name)
    [
      (lb, shifted Ast.Rmw_x86 lb);
      (rmws, shifted (Ast.Rmw_arm { impl = Ast.Lxsx; acq = true; rel = true }) rmws);
      (rmws, shifted (Ast.Rmw_arm { impl = Ast.Amo; acq = true; rel = true }) rmws);
    ];
  (* The dependencies forbid LB's weak outcome in the image too. *)
  check_bool "LB+data+ctrl+dmb.st forbids a=1, b=1" false
    (List.exists
       (fun (b : Enumerate.behaviour) -> List.mem ((0, "a"), 1) b.regs && List.mem ((1, "b"), 1) b.regs)
       (Enumerate.behaviours arm (shifted Ast.Rmw_x86 lb)))

let test_dense_ids () =
  let p =
    Dsl.prog "dense" [ ("X", 0); ("Y", 0) ]
      [
        [ Dsl.st "X" 1; Dsl.cas_x86 ~reg:"a" "Y" 0 1; Dsl.ld "b" "X" ];
        [
          Dsl.ld "c" "Y";
          Dsl.if_else (Ast.Eq (Ast.Reg "c", Ast.Int 1)) [ Dsl.st "X" 2; Dsl.st "Y" 2 ] [];
        ];
      ]
  in
  List.iter
    (fun (prog : Ast.prog) ->
      let inits = List.length (Ast.locations prog) in
      List.iter
        (fun ((x : Axiom.Execution.t), _) ->
          let ids = List.map (fun (e : E.t) -> e.id) x.events in
          Alcotest.(check (list int))
            (prog.name ^ ": init writes take the first ids")
            (List.init inits Fun.id)
            (List.filter_map (fun (e : E.t) -> if E.is_init e then Some e.id else None) x.events);
          (* Thread ids start right after the init writes, and a run
             that emits every event of its bound leaves no gap. *)
          check_int (prog.name ^ ": first thread id") inits
            (List.fold_left min max_int
               (List.filter_map (fun (e : E.t) -> if E.is_init e then None else Some e.id) x.events));
          check_bool (prog.name ^ ": ids below 63") true (List.for_all (fun i -> i < 63) ids);
          (* Sorting by id is sorting by (tid, po position). *)
          let po_index (e : E.t) =
            List.length (List.filter (fun (e' : E.t) -> Relalg.Rel.mem e'.id e.id x.po) x.events)
          in
          let key (e : E.t) = (e.tid, po_index e) in
          let by_id = List.sort (fun (a : E.t) b -> compare a.id b.id) x.events in
          let by_tid_po = List.sort (fun a b -> compare (key a) (key b)) x.events in
          check_bool (prog.name ^ ": id order is (tid, po) order") true (by_id = by_tid_po))
        (Enumerate.candidates prog))
    [ Catalog.mp_x86; Catalog.sbq_x86; p ];
  (* MP emits every event of its bound: its ids are exactly 0..n-1. *)
  List.iter
    (fun ((x : Axiom.Execution.t), _) ->
      Alcotest.(check (list int))
        "MP ids are 0..n-1"
        (List.init (List.length x.events) Fun.id)
        (List.sort compare (List.map (fun (e : E.t) -> e.id) x.events)))
    (Enumerate.candidates Catalog.mp_x86)


(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_simple () =
  let t =
    Parser.parse
      "test T\ninit X=0\nthread P0 { st X, 1; ld a, X }\nallowed 0:a=1"
  in
  check_int "one thread" 1 (List.length t.Ast.prog.Ast.threads);
  check_int "two instructions" 2
    (List.length (List.hd t.Ast.prog.Ast.threads).Ast.code);
  (match t.Ast.expect with
  | Ast.Allowed (Ast.Reg_is (0, "a", 1)) -> ()
  | _ -> Alcotest.fail "wrong expectation")

let test_parse_annotations () =
  let p =
    Parser.parse_prog
      "test T\nthread P0 {\n  ld.acq a, X\n  ld.q b, Y\n  st.rel X, 1\n         cas.lxsx.a.l r <- X, 0, 1\n  fence DMB.ST\n  r2 := (a + (b * 2))\n}"
  in
  match (List.hd p.Ast.threads).Ast.code with
  | [
   Ast.Load { ord = Axiom.Event.R_acq; _ };
   Ast.Load { ord = Axiom.Event.R_acq_pc; _ };
   Ast.Store { ord = Axiom.Event.W_rel; _ };
   Ast.Rmw
     {
       reg = Some "r";
       op = Ast.Cas _;
       kind = Ast.Rmw_arm { impl = Ast.Lxsx; acq = true; rel = true };
       _;
     };
   Ast.Fence Axiom.Event.F_dmb_st;
   Ast.Assign ("r2", Ast.Add (Ast.Reg "a", Ast.Mul (Ast.Reg "b", Ast.Int 2)));
  ] ->
      ()
  | code ->
      Alcotest.failf "unexpected parse: %a"
        (Fmt.list ~sep:Fmt.comma Ast.pp_instr)
        code

let test_parse_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Error _ -> true
    | _ -> false
  in
  check_bool "missing expectation" true (fails "test T\nthread P0 { st X, 1 }");
  check_bool "no threads" true (fails "test T\nallowed true");
  check_bool "bad fence" true
    (fails "test T\nthread P0 { fence NOPE }\nallowed true");
  check_bool "bad mnemonic" true
    (fails "test T\nthread P0 { frobnicate }\nallowed true");
  check_bool "trailing garbage" true
    (fails "test T\nthread P0 { st X, 1 }\nallowed true\n)")

(* Every shipped .litmus file parses, and its expectation holds under
   exactly the models listed here (the ones its comment describes).  A
   file missing from the table, or a table row without its file, fails. *)
let file_verdicts =
  let sc = Axiom.Sc_model.model
  and x86 = Axiom.X86_tso.model
  and arm = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected
  and arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original
  and tcg = Axiom.Tcg_model.model in
  let all = [ sc; x86; arm; arm_orig; tcg ] in
  let sbal = [ sc; x86; arm; tcg ] in
  ( all,
    [
      ("FMR.litmus", [ sc; x86; tcg ]);
      ("LB-deps.litmus", all);
      ("MP.litmus", [ sc; x86 ]);
      ("MPQ-qemu.litmus", [ sc; x86 ]);
      ("S.litmus", [ sc; x86 ]);
      ("SBAL-ldadd.litmus", sbal);
      ("SBAL-swp.litmus", sbal);
      ("SBAL.litmus", sbal);
      ("WRC.litmus", [ sc; x86 ]);
    ] )

let test_parse_file_corpus () =
  let models, table = file_verdicts in
  Alcotest.(check (list string))
    "every shipped file has a row" (List.map fst table) (Checker_corpus.litmus_files ());
  List.iter
    (fun (name, holds) ->
      let t = Checker_corpus.read_litmus name in
      List.iter
        (fun (m : Axiom.Model.t) ->
          check_bool
            (Printf.sprintf "%s under %s" name m.name)
            (List.memq m holds) (Enumerate.check m t).Enumerate.ok)
        models)
    table

(* ------------------------------------------------------------------ *)
(* Random programs: parser round trip and cross-model inclusions       *)

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"parse (prog_to_source p) = p" ~count:300 Checker_corpus.arb_prog
    (fun p -> Parser.parse_prog (Parser.prog_to_source p) = p)

let prop_sc_subset_of_all =
  QCheck.Test.make ~name:"SC behaviours included in every model" ~count:60
    Checker_corpus.arb_prog (fun p ->
      let sc = Enumerate.behaviours Axiom.Sc_model.model p in
      List.for_all
        (fun m -> Checker_corpus.included sc (Enumerate.behaviours m p))
        [
          Axiom.X86_tso.model;
          Axiom.Arm_cats.model Axiom.Arm_cats.Original;
          Axiom.Arm_cats.model Axiom.Arm_cats.Corrected;
          Axiom.Tcg_model.model;
        ])

let corrected_within_original p =
  Checker_corpus.included
    (Enumerate.behaviours (Axiom.Arm_cats.model Corrected) p)
    (Enumerate.behaviours (Axiom.Arm_cats.model Original) p)

let prop_corrected_arm_stronger =
  QCheck.Test.make ~name:"corrected Arm-Cats behaviours ⊆ original's"
    ~count:60 Checker_corpus.arb_prog corrected_within_original

(* The same inclusion on every target of the seeded sample (the first
   300 without [--corpus N]) and of the catalog. *)
let test_corrected_arm_stronger_corpus () =
  List.iter
    (fun (p : Ast.prog) ->
      if not (corrected_within_original p) then
        Alcotest.failf "%s: a corrected Arm-Cats behaviour the original forbids" p.name)
    (List.sort_uniq compare
       (List.concat_map Checker_corpus.targets (Checker_corpus.sample 300 @ Checker_corpus.catalog ())))

let prop_sc_nonempty =
  QCheck.Test.make ~name:"every program has an SC behaviour" ~count:60
    Checker_corpus.arb_prog (fun p ->
      Enumerate.behaviours Axiom.Sc_model.model p <> [])

let prop_candidates_well_formed =
  QCheck.Test.make ~name:"all candidates are well-formed" ~count:40 Checker_corpus.arb_prog
    (fun p ->
      List.for_all
        (fun (x, _) -> Result.is_ok (Axiom.Execution.well_formed x))
        (Enumerate.candidates p))

(* ------------------------------------------------------------------ *)
(* Operational TSO machine vs the axiomatic model                      *)

(* Equal behaviours on every x86 catalog program; on the seeded sample
   (the first 300 without [--corpus N]) equal, or a strict subset where
   a CAS can fail. *)
let test_tso_machine_corpus_equivalence () =
  let check ~exact p = Result.iter_error Alcotest.fail (Checker_corpus.tso_against_axiomatic ~exact p) in
  List.iter (check ~exact:true) (Checker_corpus.x86_catalog ());
  List.iter (check ~exact:false) (Checker_corpus.sample 300)

(* The store-buffer machine and the paper's axiomatic x86 model agree
   on programs whose RMWs all succeed; a CAS that fails is where the two
   treatments of LOCK-prefixed instructions may differ, and the
   generator's CAS expected values make failures common, so a program
   with a CAS need only give operational ⊆ axiomatic. *)
let prop_tso_machine_refines_axiomatic =
  QCheck.Test.make ~name:"operational TSO ⊆ axiomatic x86" ~count:150
    Checker_corpus.arb_x86_prog (fun p ->
      Result.is_ok (Checker_corpus.tso_against_axiomatic ~exact:false p))

let test_failed_rmw_divergence () =
  (* SB through an always-failing CAS: the machine drains the buffer
     (real LOCK semantics), the paper's axiomatic model gives failed
     RMWs no fence power (§5.2) — the weak outcome splits them. *)
  let p =
    Dsl.prog "SB+failed-rmws" [ ("X", 0); ("Y", 0); ("D", 0) ]
      [
        [ Dsl.st "X" 1; Dsl.cas_x86 "D" 5 6; Dsl.ld "a" "Y" ];
        [ Dsl.st "Y" 1; Dsl.cas_x86 "D" 5 6; Dsl.ld "b" "X" ];
      ]
  in
  let weak = Ast.(And (Reg_is (0, "a", 0), Reg_is (1, "b", 0))) in
  let op = Tso_machine.behaviours p in
  let ax = Enumerate.behaviours Axiom.X86_tso.model p in
  check_bool "operational forbids the weak outcome" false
    (List.exists (Enumerate.eval_cond weak) op);
  check_bool "axiomatic (successful-RMW-only fences) allows it" true
    (List.exists (Enumerate.eval_cond weak) ax)

let test_machine_statistics () =
  check_bool "explores a finite state space" true
    (Tso_machine.explored_states Catalog.sbq_x86 < 1000);
  check_int "IRIW behaviours" 15
    (List.length (Tso_machine.behaviours (List.assoc "IRIW" Catalog.mapping_corpus)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run ~argv:Checker_corpus.argv "litmus"
    [
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "annotations" `Quick test_parse_annotations;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "file corpus" `Quick test_parse_file_corpus;
          QCheck_alcotest.to_alcotest prop_parser_roundtrip;
        ] );
      ( "model properties",
        [
          QCheck_alcotest.to_alcotest prop_sc_subset_of_all;
          QCheck_alcotest.to_alcotest prop_corrected_arm_stronger;
          QCheck_alcotest.to_alcotest prop_sc_nonempty;
          QCheck_alcotest.to_alcotest prop_candidates_well_formed;
          Alcotest.test_case "corrected ⊆ original on the corpus" `Quick
            test_corrected_arm_stronger_corpus;
        ] );
      ( "enumerator",
        [
          Alcotest.test_case "value universe" `Quick test_universe;
          Alcotest.test_case "computed store values" `Quick test_computed_values;
          Alcotest.test_case "candidate counts" `Quick test_candidate_counts;
          Alcotest.test_case "candidates well-formed" `Quick
            test_all_candidates_well_formed;
          Alcotest.test_case "register observation" `Quick
            test_registers_in_behaviour;
          Alcotest.test_case "control flow" `Quick test_if_branches;
          Alcotest.test_case "failed CAS" `Quick
            test_failed_cas_generates_read_only;
          Alcotest.test_case "condition evaluation" `Quick test_cond_eval;
          Alcotest.test_case "AST helpers" `Quick test_ast_helpers;
          Alcotest.test_case "event bound" `Quick test_event_bound;
          Alcotest.test_case "event bound, supervised" `Quick
            test_event_bound_supervised;
          Alcotest.test_case "dense ids" `Quick test_dense_ids;
          Alcotest.test_case "derived image runs" `Quick test_derived_runs;
        ] );
      ( "operational TSO",
        [
          Alcotest.test_case "corpus equivalence with axiomatic" `Quick
            test_tso_machine_corpus_equivalence;
          QCheck_alcotest.to_alcotest prop_tso_machine_refines_axiomatic;
          Alcotest.test_case "failed-RMW divergence witness" `Quick
            test_failed_rmw_divergence;
          Alcotest.test_case "statistics" `Quick test_machine_statistics;
        ] );
      ("SC ground truth", suite_of_catalog Axiom.Sc_model.model Catalog.sc_tests);
      ("x86 ground truth", suite_of_catalog Axiom.X86_tso.model Catalog.x86_tests);
      ( "Arm(original) ground truth",
        suite_of_catalog
          (Axiom.Arm_cats.model Axiom.Arm_cats.Original)
          (Catalog.arm_tests_common @ Catalog.arm_tests_original) );
      ( "Arm(corrected) ground truth",
        suite_of_catalog
          (Axiom.Arm_cats.model Axiom.Arm_cats.Corrected)
          (Catalog.arm_tests_common @ Catalog.arm_tests_corrected) );
      ("TCG ground truth", suite_of_catalog Axiom.Tcg_model.model Catalog.tcg_tests);
    ]
