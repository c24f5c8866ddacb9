(* Unit and property tests for the relational algebra substrate. *)

open Relalg

let rel = Alcotest.testable Rel.pp Rel.equal
let iset = Alcotest.testable Iset.pp Iset.equal

let check_rel = Alcotest.check rel
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let r_of = Rel.of_list
let s_of = Iset.of_list

(* ------------------------------------------------------------------ *)

let test_compose () =
  check_rel "compose chains pairs"
    (r_of [ (1, 3) ])
    (Rel.compose (r_of [ (1, 2) ]) (r_of [ (2, 3) ]));
  check_rel "compose fans out"
    (r_of [ (1, 3); (1, 4) ])
    (Rel.compose (r_of [ (1, 2) ]) (r_of [ (2, 3); (2, 4) ]));
  check_rel "compose with empty is empty" Rel.empty
    (Rel.compose (r_of [ (1, 2) ]) Rel.empty)

let test_sequence () =
  check_rel "three-step sequence"
    (r_of [ (1, 4) ])
    (Rel.sequence [ r_of [ (1, 2) ]; r_of [ (2, 3) ]; r_of [ (3, 4) ] ]);
  Alcotest.check_raises "empty sequence rejected"
    (Invalid_argument "Rel.sequence: empty list") (fun () ->
      ignore (Rel.sequence []))

let test_id_restrict () =
  let a = s_of [ 1; 2 ] in
  check_rel "id" (r_of [ (1, 1); (2, 2) ]) (Rel.id a);
  check_rel "[A]; r; [B]"
    (r_of [ (1, 5) ])
    (Rel.restrict a (r_of [ (1, 5); (3, 5); (1, 9) ]) (s_of [ 5 ]));
  check_rel "cross"
    (r_of [ (1, 5); (1, 6); (2, 5); (2, 6) ])
    (Rel.cross a (s_of [ 5; 6 ]))

let test_closure () =
  let chain = r_of [ (1, 2); (2, 3); (3, 4) ] in
  check_rel "transitive closure of a chain"
    (r_of [ (1, 2); (2, 3); (3, 4); (1, 3); (2, 4); (1, 4) ])
    (Rel.transitive_closure chain);
  check_bool "chain is acyclic" true (Rel.acyclic chain);
  check_bool "cycle detected" false (Rel.acyclic (Rel.add 4 1 chain));
  check_bool "self loop is cyclic" false (Rel.acyclic (r_of [ (1, 1) ]))

let test_inverse_domain () =
  let r = r_of [ (1, 2); (3, 2) ] in
  check_rel "inverse" (r_of [ (2, 1); (2, 3) ]) (Rel.inverse r);
  Alcotest.check iset "domain" (s_of [ 1; 3 ]) (Rel.domain r);
  Alcotest.check iset "codomain" (s_of [ 2 ]) (Rel.codomain r);
  Alcotest.check iset "succs" (s_of [ 2 ]) (Rel.succs r 1);
  Alcotest.check iset "preds" (s_of [ 1; 3 ]) (Rel.preds r 2)

let test_total_order () =
  check_bool "1<2<3 is strict total" true
    (Rel.is_strict_total_order_on (s_of [ 1; 2; 3 ])
       (r_of [ (1, 2); (2, 3); (1, 3) ]));
  check_bool "missing pair is not total" false
    (Rel.is_strict_total_order_on (s_of [ 1; 2; 3 ]) (r_of [ (1, 2); (1, 3) ]))

let test_linear_extensions () =
  let s = s_of [ 1; 2; 3 ] in
  check_int "unconstrained: 3! orders" 6
    (List.length (Rel.linear_extensions s Rel.empty));
  let exts = Rel.linear_extensions s (r_of [ (1, 2) ]) in
  check_int "one constraint halves the orders" 3 (List.length exts);
  List.iter
    (fun ext -> check_bool "constraint respected" true (Rel.mem 1 2 ext))
    exts;
  check_int "cyclic constraints: none" 0
    (List.length (Rel.linear_extensions s (r_of [ (1, 2); (2, 1) ])));
  check_int "total order: unique" 1
    (List.length (Rel.linear_extensions s (r_of [ (1, 2); (2, 3) ])))

let test_immediate () =
  let r = Rel.transitive_closure (r_of [ (1, 2); (2, 3) ]) in
  check_rel "immediate removes skips" (r_of [ (1, 2); (2, 3) ]) (Rel.immediate r)

let test_find_cycle () =
  Alcotest.(check (option (list int))) "acyclic" None
    (Rel.find_cycle (r_of [ (1, 2); (2, 3) ]));
  (match Rel.find_cycle (r_of [ (1, 2); (2, 3); (3, 1) ]) with
  | Some cycle ->
      check_int "cycle length" 3 (List.length cycle);
      (* consecutive elements (and last -> first) must be related *)
      let r = r_of [ (1, 2); (2, 3); (3, 1) ] in
      let rec edges = function
        | a :: (b :: _ as rest) ->
            check_bool "edge" true (Rel.mem a b r);
            edges rest
        | [ last ] -> check_bool "closing edge" true (Rel.mem last (List.hd cycle) r)
        | [] -> ()
      in
      edges cycle
  | None -> Alcotest.fail "cycle not found");
  match Rel.find_cycle (r_of [ (5, 5) ]) with
  | Some [ 5 ] -> ()
  | _ -> Alcotest.fail "self-loop not found"

let test_minus_id () =
  check_rel "minus_id"
    (r_of [ (1, 2) ])
    (Rel.minus_id (r_of [ (1, 2); (3, 3) ]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let arb_rel =
  let arb_pair = QCheck.(pair (int_range 0 6) (int_range 0 6)) in
  QCheck.map
    ~rev:(fun r -> Rel.to_list r)
    (fun l -> Rel.of_list l)
    (QCheck.small_list arb_pair)

let prop_find_cycle_agrees_with_acyclic =
  QCheck.Test.make ~name:"find_cycle agrees with acyclic" ~count:300 arb_rel
    (fun r -> Rel.acyclic r = (Rel.find_cycle r = None))

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure idempotent" ~count:200 arb_rel (fun r ->
      let c = Rel.transitive_closure r in
      Rel.equal c (Rel.transitive_closure c))

let prop_closure_contains =
  QCheck.Test.make ~name:"closure contains relation" ~count:200 arb_rel
    (fun r -> Rel.subset r (Rel.transitive_closure r))

let prop_compose_assoc =
  QCheck.Test.make ~name:"composition associative" ~count:100
    QCheck.(triple arb_rel arb_rel arb_rel)
    (fun (a, b, c) ->
      Rel.equal
        (Rel.compose a (Rel.compose b c))
        (Rel.compose (Rel.compose a b) c))

let prop_inverse_involution =
  QCheck.Test.make ~name:"inverse is an involution" ~count:200 arb_rel
    (fun r -> Rel.equal r (Rel.inverse (Rel.inverse r)))

let prop_union_monotone_closure =
  QCheck.Test.make ~name:"closure monotone in union" ~count:100
    QCheck.(pair arb_rel arb_rel)
    (fun (a, b) ->
      Rel.subset (Rel.transitive_closure a)
        (Rel.transitive_closure (Rel.union a b)))

let prop_linear_extensions_are_orders =
  QCheck.Test.make ~name:"linear extensions are total orders containing r"
    ~count:50
    QCheck.(
      pair
        (map Iset.of_list (small_list (int_range 0 4)))
        arb_rel)
    (fun (s, r) ->
      let r = Rel.restrict s r s in
      List.for_all
        (fun ext ->
          Rel.is_strict_total_order_on s ext
          && Rel.subset (Rel.minus_id (Rel.transitive_closure r)) ext)
        (Rel.linear_extensions s r))

(* ------------------------------------------------------------------ *)
(* Differential: the bit rows against the Set-based reference          *)

module Ref = Relalg_reference
module Ref_axiom = Axiom_reference

(* Three relations and two sets over a handful of ids drawn from the
   whole 0..62 range (62 is the sign bit of the row masks), and two
   query ids. *)
type scenario = {
  rels : (int * int) list * (int * int) list * (int * int) list;
  sets : int list * int list;
  x : int;
  y : int;
}

let gen_scenario =
  QCheck.Gen.(
    let* ids = list_size (int_range 1 8) (int_range 0 62) in
    let id = oneofl ids in
    let rel = list_size (int_range 0 16) (pair id id) in
    let set = list_size (int_range 0 6) id in
    let* rels = triple rel rel rel in
    let* sets = pair set set in
    let* x = oneof [ id; int_range 0 62 ] in
    let+ y = oneof [ id; int_range 0 62 ] in
    { rels; sets; x; y })

let print_scenario sc =
  let pairs = QCheck.Print.(list (pair int int)) and ints = QCheck.Print.(list int) in
  let r1, r2, r3 = sc.rels and s1, s2 = sc.sets in
  Printf.sprintf "r1=%s r2=%s r3=%s s1=%s s2=%s x=%d y=%d" (pairs r1) (pairs r2) (pairs r3)
    (ints s1) (ints s2) sc.x sc.y

let prop_matches_reference =
  QCheck.Test.make ~name:"every Rel/Iset operation matches the Set-based reference"
    ~count:500
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun sc ->
      let l1, l2, l3 = sc.rels and m1, m2 = sc.sets and x = sc.x and y = sc.y in
      let a = Rel.of_list l1 and b = Rel.of_list l2 and c = Rel.of_list l3 in
      let a' = Ref.Rel.of_list l1 and b' = Ref.Rel.of_list l2 and c' = Ref.Rel.of_list l3 in
      let s = Iset.of_list m1 and t = Iset.of_list m2 in
      let s' = Ref.Iset.of_list m1 and t' = Ref.Iset.of_list m2 in
      let agree what ok =
        if not ok then QCheck.Test.fail_reportf "%s differs from the reference" what
      in
      let rel what r r' = agree what (Rel.to_list r = Ref.Rel.to_list r') in
      let set what v v' = agree what (Iset.to_list v = Ref.Iset.to_list v') in
      let rels what rs rs' =
        agree what (List.map Rel.to_list rs = List.map Ref.Rel.to_list rs')
      in
      let pp_eq what pp v pp' v' =
        agree what (Format.asprintf "%a" pp v = Format.asprintf "%a" pp' v')
      in
      (* Iset *)
      set "Iset.of_list" s s';
      agree "Iset.is_empty" (Iset.is_empty s = Ref.Iset.is_empty s');
      agree "Iset.mem" (Iset.mem x s = Ref.Iset.mem x s');
      set "Iset.add" (Iset.add x s) (Ref.Iset.add x s');
      set "Iset.singleton" (Iset.singleton y) (Ref.Iset.singleton y);
      agree "Iset.cardinal" (Iset.cardinal s = Ref.Iset.cardinal s');
      set "Iset.union" (Iset.union s t) (Ref.Iset.union s' t');
      set "Iset.diff" (Iset.diff s t) (Ref.Iset.diff s' t');
      agree "Iset.equal" (Iset.equal s t = Ref.Iset.equal s' t');
      set "Iset.filter" (Iset.filter (fun i -> i mod 3 = 0) s)
        (Ref.Iset.filter (fun i -> i mod 3 = 0) s');
      agree "Iset.for_all" (Iset.for_all (fun i -> i < 40) s = Ref.Iset.for_all (fun i -> i < 40) s');
      agree "Iset.fold" (Iset.fold List.cons s [] = Ref.Iset.fold List.cons s' []);
      set "Iset.of_mask" (Iset.of_mask (s :> int)) s';
      pp_eq "Iset.pp" Iset.pp s Ref.Iset.pp s';
      (* Rel *)
      rel "Rel.of_list" a a';
      rel "Rel.init" (Rel.init (x + 1) (Rel.succs a)) (Ref.Rel.init (x + 1) (Ref.Rel.succs a'));
      agree "Rel.is_empty" (Rel.is_empty a = Ref.Rel.is_empty a');
      agree "Rel.mem" (Rel.mem x y a = Ref.Rel.mem x y a');
      rel "Rel.add" (Rel.add x y a) (Ref.Rel.add x y a');
      rel "Rel.union" (Rel.union a b) (Ref.Rel.union a' b');
      rel "Rel.union_all" (Rel.union_all [ a; b; c ]) (Ref.Rel.union_all [ a'; b'; c' ]);
      rel "Rel.inter" (Rel.inter a b) (Ref.Rel.inter a' b');
      agree "Rel.equal" (Rel.equal a b = Ref.Rel.equal a' b');
      agree "Rel.equal (rebuilt)"
        (Rel.equal (Rel.union a b) (Rel.union b a)
        && Rel.equal (Rel.inter a b) (Rel.inter b a));
      agree "Rel.subset" (Rel.subset a b = Ref.Rel.subset a' b');
      agree "Rel.subset (inter)" (Rel.subset (Rel.inter a b) a);
      rel "Rel.compose" (Rel.compose a b) (Ref.Rel.compose a' b');
      rel "Rel.sequence" (Rel.sequence [ a; b; c ]) (Ref.Rel.sequence [ a'; b'; c' ]);
      rel "Rel.inverse" (Rel.inverse a) (Ref.Rel.inverse a');
      let f i = (i * 5 + x) mod 63 in
      rel "Rel.map" (Rel.map f a) (Ref.Rel.map f a');
      rel "Rel.id" (Rel.id s) (Ref.Rel.id s');
      rel "Rel.cross" (Rel.cross s t) (Ref.Rel.cross s' t');
      rel "Rel.restrict" (Rel.restrict s a t) (Ref.Rel.restrict s' a' t');
      set "Rel.domain" (Rel.domain a) (Ref.Rel.domain a');
      set "Rel.codomain" (Rel.codomain a) (Ref.Rel.codomain a');
      agree "Rel.fold"
        (Rel.fold (fun i j acc -> (i, j) :: acc) a []
        = Ref.Rel.fold (fun i j acc -> (i, j) :: acc) a' []);
      set "Rel.succs" (Rel.succs a x) (Ref.Rel.succs a' x);
      set "Rel.preds" (Rel.preds a y) (Ref.Rel.preds a' y);
      rel "Rel.transitive_closure" (Rel.transitive_closure a) (Ref.Rel.transitive_closure a');
      agree "Rel.irreflexive" (Rel.irreflexive a = Ref.Rel.irreflexive a');
      agree "Rel.acyclic" (Rel.acyclic a = Ref.Rel.acyclic a');
      agree "Rel.is_strict_total_order_on"
        (Rel.is_strict_total_order_on s a = Ref.Rel.is_strict_total_order_on s' a');
      let exts = Rel.linear_extensions s a and exts' = Ref.Rel.linear_extensions s' a' in
      rels "Rel.linear_extensions" exts exts';
      List.iter2
        (fun e e' ->
          agree "Rel.is_strict_total_order_on (extension)"
            (Rel.is_strict_total_order_on s e && Ref.Rel.is_strict_total_order_on s' e'))
        exts exts';
      rel "Rel.immediate" (Rel.immediate a) (Ref.Rel.immediate a');
      rel "Rel.minus_id" (Rel.minus_id a) (Ref.Rel.minus_id a');
      agree "Rel.find_cycle" (Rel.find_cycle a = Ref.Rel.find_cycle a');
      agree "Rel.find_cycle (union)"
        (Rel.find_cycle (Rel.union a b) = Ref.Rel.find_cycle (Ref.Rel.union a' b'));
      pp_eq "Rel.pp" Rel.pp a Ref.Rel.pp a';
      true)

(* The model-level differential corpus: test/checker_corpus.ml's
   seeded sample (the first 300 without [--corpus N]) with its targets
   under the generated sweep's schemes, and its catalog with every
   program's targets under every scheme of the sweep. *)
let differential () =
  List.sort_uniq compare
    (List.concat_map
       (Checker_corpus.targets ~schemes:Report.Sweep.default_generated_schemes)
       (Checker_corpus.sample 300)
    @ List.concat_map Checker_corpus.targets (Checker_corpus.catalog ()))

let to_reference (x : Axiom.Execution.t) =
  let r rel = Ref.Rel.of_list (Rel.to_list rel) in
  {
    Ref.Execution.events = x.events;
    po = r x.po;
    rf = r x.rf;
    co = r x.co;
    rmw_plain = r x.rmw_plain;
    amo = r x.amo;
    lxsx = r x.lxsx;
    data = r x.data;
    ctrl = r x.ctrl;
    addr = r x.addr;
  }

let test_models_match_reference () =
  let models =
    [
      (Axiom.Sc_model.model, Ref_axiom.Sc_model.model);
      (Axiom.X86_tso.model, Ref_axiom.X86_tso.model);
      (Axiom.Tcg_model.model, Ref_axiom.Tcg_model.model);
      (Axiom.Arm_cats.model Original, Ref_axiom.Arm_cats.model Original);
      (Axiom.Arm_cats.model Corrected, Ref_axiom.Arm_cats.model Corrected);
    ]
  in
  let verdict = function
    | Axiom.Explain.Consistent -> None
    | Violates { axiom; cycle } -> Some (axiom, cycle)
  and verdict' = function
    | Ref_axiom.Explain.Consistent -> None
    | Violates { axiom; cycle } -> Some (axiom, cycle)
  in
  let candidates = ref 0 in
  List.iter
    (fun (p : Litmus.Ast.prog) ->
      List.iter
        (fun ((x : Axiom.Execution.t), _) ->
          incr candidates;
          let x' = to_reference x in
          let agree what ok =
            if not ok then
              Alcotest.failf "%s: %s differs from the reference on@.%a" p.name what
                Axiom.Execution.pp x
          in
          List.iter
            (fun ((m : Axiom.Model.t), (m' : Ref_axiom.Model.t)) ->
              agree (m.name ^ " consistent") (m.consistent x = m'.consistent x');
              agree (m.name ^ " Explain.check_all")
                (List.map verdict (Axiom.Explain.check_all m x)
                = List.map verdict' (Ref_axiom.Explain.check_all m' x')))
            models;
          agree "well_formed" (Axiom.Execution.well_formed x = Ref.Execution.well_formed x');
          agree "behaviour" (Axiom.Execution.behaviour x = Ref.Execution.behaviour x'))
        (Litmus.Enumerate.candidates p))
    (differential ());
  check_bool "some candidates checked" true (!candidates > 0)

let test_id_bound () =
  let raises what id f =
    match f () with
    | _ -> Alcotest.failf "%s accepted id %d" what id
    | exception Invalid_argument msg ->
        let needle = string_of_int id in
        let n = String.length needle in
        let rec has i =
          i + n <= String.length msg && (String.sub msg i n = needle || has (i + 1))
        in
        check_bool (Printf.sprintf "%s names id %d" what id) true (has 0)
  in
  raises "Iset.add" 63 (fun () -> Iset.add 63 Iset.empty);
  raises "Iset.mem" (-1) (fun () -> Iset.mem (-1) Iset.empty);
  raises "Rel.of_list" 63 (fun () -> Rel.of_list [ (0, 63) ]);
  raises "Rel.add" 100 (fun () -> Rel.add 100 0 Rel.empty);
  raises "Rel.mem" 64 (fun () -> Rel.mem 0 64 Rel.empty);
  (* 62 is the sign bit of a row mask and behaves like any other id. *)
  let r = Rel.of_list [ (62, 0); (0, 62) ] in
  Alcotest.(check (list (pair int int))) "62 round-trips" [ (0, 62); (62, 0) ] (Rel.to_list r);
  check_bool "cycle through 62" false (Rel.acyclic r);
  Alcotest.(check (list int)) "62 in a set" [ 0; 62 ] (Iset.to_list (Iset.of_list [ 62; 0 ]))

(* Relations over a few ids from the whole 0..62 range; half of them
   point every edge up, so both verdicts of [acyclic] are common. *)
let gen_wide_rel =
  QCheck.Gen.(
    let* ids = list_size (int_range 1 12) (int_range 0 62) in
    let id = oneofl ids in
    let* pairs = list_size (int_range 0 24) (pair id id) in
    let+ upward = bool in
    if upward then List.filter_map (fun (a, b) -> if a < b then Some (a, b) else None) pairs
    else pairs)

let prop_acyclic =
  QCheck.Test.make ~name:"acyclic is irreflexive closure, as in the reference" ~count:500
    (QCheck.make ~print:QCheck.Print.(list (pair int int)) gen_wide_rel)
    (fun l ->
      let r = Rel.of_list l in
      let v = Rel.acyclic r in
      v = Rel.irreflexive (Rel.transitive_closure r) && v = Ref.Rel.acyclic (Ref.Rel.of_list l))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_acyclic;
      prop_closure_idempotent;
      prop_closure_contains;
      prop_compose_assoc;
      prop_inverse_involution;
      prop_union_monotone_closure;
      prop_linear_extensions_are_orders;
      prop_find_cycle_agrees_with_acyclic;
      prop_matches_reference;
    ]

let () =
  Alcotest.run ~argv:Checker_corpus.argv "relalg"
    [
      ( "rel",
        [
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "sequence" `Quick test_sequence;
          Alcotest.test_case "id/restrict/cross" `Quick test_id_restrict;
          Alcotest.test_case "closure/acyclic" `Quick test_closure;
          Alcotest.test_case "inverse/domain" `Quick test_inverse_domain;
          Alcotest.test_case "total order" `Quick test_total_order;
          Alcotest.test_case "linear extensions" `Quick test_linear_extensions;
          Alcotest.test_case "immediate" `Quick test_immediate;
          Alcotest.test_case "minus_id" `Quick test_minus_id;
          Alcotest.test_case "find_cycle" `Quick test_find_cycle;
          Alcotest.test_case "ids outside 0..62" `Quick test_id_bound;
        ] );
      ( "reference",
        [
          Alcotest.test_case "models, well_formed, check_all, behaviour" `Quick
            test_models_match_reference;
        ] );
      ("properties", props);
    ]
