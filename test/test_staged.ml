(* The staged checker against its definition.  Each model's axioms are
   staged on a combo's skeleton ([Model.prepare]), and the pruned
   survivor paths ([fold_survivors] under [behaviours],
   [behaviours_many] and [consistent_executions]) check survivors with
   the model's own axiom alone, relying on the per-location prune to
   have established coherence and atomicity.  Everything here is
   compared, over the full candidate product ([Enumerate.candidates]) of
   generated programs and their targets under every mapping scheme,
   with the models as the paper states them, unstaged ({!Unstaged}),
   for all five models: each axiom, [consistent], the behaviours, and
   each rejected candidate's first violated axiom, which both the
   coverage probe's per-axiom counts and [Explain.check] must report.

   [--corpus N] sets the size of the seeded corpus (default 300). *)

module Ast = Litmus.Ast
module En = Litmus.Enumerate
module X = Axiom.Execution
module M = Axiom.Model

(* Every relation built from the whole candidate, and each axiom the
   irreflexivity of a transitive closure: the formulation the staged
   models replaced (paper §5.2, Figures 5 and 6). *)
module Unstaged = struct
  open Relalg
  module E = Axiom.Event

  let irreflexive_closure r = Rel.irreflexive (Rel.transitive_closure r)
  let fr = X.fr

  let coherence x = irreflexive_closure (Rel.union_all [ X.po_loc x; x.X.rf; x.co; fr x ])
  let atomicity x = Rel.is_empty (Rel.inter (X.rmw x) (Rel.compose (X.fre x) (X.coe x)))
  let common x = coherence x && atomicity x

  let sc x = irreflexive_closure (Rel.union_all [ x.X.po; x.rf; x.co; fr x ])

  let x86 x =
    let po = x.X.po and r = X.reads x and w = X.writes x in
    let ppo = Rel.inter (Rel.union_all [ Rel.cross w w; Rel.cross r w; Rel.cross r r ]) po in
    let rmw = X.rmw x in
    let at_f =
      Iset.union (Iset.union (Rel.domain rmw) (Rel.codomain rmw)) (X.fences x E.F_mfence)
    in
    let implied = Rel.union (Rel.compose po (Rel.id at_f)) (Rel.compose (Rel.id at_f) po) in
    irreflexive_closure (Rel.union_all [ implied; ppo; X.rfe x; fr x; x.co ])

  let tcg x =
    let po = x.X.po and r = X.reads x and w = X.writes x in
    let m = Iset.union r w in
    let clause before k after =
      Rel.sequence [ Rel.id before; po; Rel.id (X.fences x k); po; Rel.id after ]
    in
    let rmw = X.rmw x and fsc = X.fences x E.F_sc in
    let ord =
      Rel.union_all
        [
          clause r E.F_rr r; clause r E.F_rw w; clause r E.F_rm m;
          clause w E.F_wr r; clause w E.F_ww w; clause w E.F_wm m;
          clause m E.F_mr r; clause m E.F_mw w; clause m E.F_mm m;
          Rel.compose po (Rel.id (Iset.union (X.sc_writes x) (Rel.domain rmw)));
          Rel.compose (Rel.id (Iset.union (X.sc_reads x) (Rel.codomain rmw))) po;
          Rel.compose po (Rel.id fsc);
          Rel.compose (Rel.id fsc) po;
        ]
    in
    irreflexive_closure (Rel.union_all [ ord; X.rfe x; X.coe x; X.fre x ])

  let arm variant x =
    let po = x.X.po and r = X.reads x and w = X.writes x in
    let a = X.acq_reads x and q = X.acq_pc_reads x and l = X.rel_writes x in
    let seq = Rel.sequence and rmw = X.rmw x and rfi = X.rfi x in
    let lws = Rel.restrict (X.mems x) (X.po_loc x) w in
    let dob =
      Rel.union_all
        [
          x.addr; x.data;
          Rel.compose x.ctrl (Rel.id w);
          seq [ x.addr; po; Rel.id w ];
          Rel.compose (Rel.union x.addr x.data) rfi;
        ]
    in
    let aob = Rel.union rmw (seq [ Rel.id (Rel.codomain rmw); rfi; Rel.id (Iset.union a q) ]) in
    let amo_al = seq [ Rel.id a; x.amo; Rel.id l ] in
    let bob =
      Rel.union_all
        ([
           seq [ po; Rel.id (X.fences x E.F_dmb_full); po ];
           seq [ Rel.id r; po; Rel.id (X.fences x E.F_dmb_ld); po ];
           seq [ Rel.id w; po; Rel.id (X.fences x E.F_dmb_st); po; Rel.id w ];
           seq [ Rel.id (Iset.union a q); po ];
           seq [ po; Rel.id l ];
           seq [ Rel.id l; po; Rel.id a ];
         ]
        @
        match variant with
        | Axiom.Arm_cats.Original -> [ seq [ po; amo_al; po ] ]
        | Corrected ->
            [
              Rel.compose po (Rel.id (Rel.domain amo_al));
              Rel.compose (Rel.id (Rel.codomain amo_al)) po;
            ])
    in
    let lob = Rel.transitive_closure (Rel.union_all [ lws; dob; aob; bob ]) in
    irreflexive_closure (Rel.union_all [ X.rfe x; X.coe x; X.fre x; lob ])
end

(* Each model with its own axiom's name and unstaged predicate. *)
let models =
  Axiom.
    [
      (Sc_model.model, "sequential consistency (po ∪ rf ∪ co ∪ fr)", Unstaged.sc);
      (X86_tso.model, "x86 (GHB)", Unstaged.x86);
      (Tcg_model.model, "TCG (GOrd: ghb)", Unstaged.tcg);
      (Arm_cats.model Arm_cats.Original, "Arm (external: ob)", Unstaged.arm Arm_cats.Original);
      (Arm_cats.model Arm_cats.Corrected, "Arm (external: ob)", Unstaged.arm Arm_cats.Corrected);
    ]

(* The first axiom [x] violates, unstaged, in checking order: coherence,
   the model's own axiom, atomicity; [None] if consistent. *)
let classify own_name own x =
  if not (Unstaged.coherence x) then Some "sc-per-loc (coherence)"
  else if not (own x) then Some own_name
  else if not (Unstaged.atomicity x) then Some "atomicity"
  else None

(* A model with no axiom of its own: its consistent executions are the
   survivors themselves, in enumeration order. *)
let survivors_model = M.make "survivors" [ M.coherence; M.atomicity ]

(* A program and its targets under every scheme of the catalog sweep. *)
let with_targets p =
  List.sort_uniq compare
    (p :: List.map (fun (e : Report.Sweep.entry) -> e.f p) (Report.Sweep.default_entries ()))

let key (x : X.t) = (x.events, Relalg.Rel.to_list x.rf, Relalg.Rel.to_list x.co)

(* The candidates of one combo share their skeleton: consecutive, with
   physically equal event lists. *)
let by_skeleton cands =
  List.fold_right
    (fun (x : X.t) groups ->
      match groups with
      | (y :: _ as g) :: rest when y.X.events == x.events -> (x :: g) :: rest
      | _ -> [ x ] :: groups)
    cands []

let fail (p : Ast.prog) fmt =
  Format.kasprintf (fun msg -> failwith (Format.asprintf "%s: %s@.%a" p.name msg Ast.pp_prog p)) fmt

let checked = ref 0

let check_program (p : Ast.prog) =
  let cands = En.candidates p in
  checked := !checked + List.length cands;
  let xs = List.map fst cands in
  let survivors = List.map fst (En.consistent_executions survivors_model p) in
  if
    List.sort compare (List.map key survivors)
    <> List.sort compare (List.map key (List.filter Unstaged.common xs))
  then fail p "the survivors are not the candidates passing coherence and atomicity";
  let groups = by_skeleton xs in
  (* Each axiom, staged on one candidate of each combo, decides every
     candidate of that combo as the unstaged axiom does. *)
  let staged_agrees (a : M.axiom) unstaged =
    List.iter
      (fun group ->
        let check = M.prepare a (List.hd group) in
        List.iter
          (fun x -> if check x <> unstaged x then fail p "staged %s differs from unstaged" a.name)
          group)
      groups
  in
  staged_agrees M.coherence Unstaged.coherence;
  staged_agrees M.atomicity Unstaged.atomicity;
  En.clear_caches ();
  let many = En.behaviours_many (List.map (fun (m, _, _) -> m) models) p in
  let probed = En.behaviours_probed_many (List.map (fun (m, _, _) -> m) models) p in
  List.iter
    (fun ((m : M.t), own_name, own) ->
      (match m.axioms with
      | [ c; a; at ] when c == M.coherence && at == M.atomicity && a.name = own_name ->
          staged_agrees a own
      | _ -> fail p "%s: the axioms are not coherence, %s, atomicity" m.name own_name);
      (* Every candidate's verdict and, when rejected, its first
         violated axiom: [consistent] and [Explain.check] agree with the
         unstaged classification. *)
      let classes = List.map (classify own_name own) xs in
      List.iter2
        (fun x cls ->
          if m.consistent x <> (cls = None) then fail p "%s: consistent differs from unstaged" m.name;
          match (Axiom.Explain.check m x, cls) with
          | Axiom.Explain.Consistent, None -> ()
          | Axiom.Explain.Violates { axiom; _ }, Some name when String.equal axiom name -> ()
          | _ -> fail p "%s: Explain.check differs from the unstaged classification" m.name)
        xs classes;
      (* The survivor path keeps the enumeration order: witness capture
         and [nearest_consistent] take the first match. *)
      let consistent = En.consistent_executions m p in
      if
        List.map (fun (x, _) -> key x) consistent
        <> List.map key (List.filter m.consistent survivors)
      then fail p "%s: consistent_executions differs from the filtered survivors" m.name;
      let expected =
        List.sort_uniq En.behaviour_compare
          (List.filter_map
             (fun ((x, regs), cls) ->
               if cls = None then Some { En.mem = X.behaviour x; regs } else None)
             (List.combine cands classes))
      in
      if En.behaviours m p <> expected then fail p "%s: behaviours differ" m.name;
      if List.assoc m.name many <> expected then fail p "%s: behaviours_many differs" m.name;
      (* The counted probe classifies each rejection from its staged
         checks; the reference counts the unstaged classes. *)
      let bs, rejects = List.assoc m.name probed in
      if bs <> expected then fail p "%s: behaviours_probed_many differs" m.name;
      let count name = List.length (List.filter (( = ) (Some name)) classes) in
      let reference =
        List.map (fun name -> (name, count name)) [ "sc-per-loc (coherence)"; own_name; "atomicity" ]
      in
      if rejects <> reference then
        fail p "%s: the probe's reject counts differ from the unstaged classes" m.name;
      let rejected = ref 0 in
      if En.behaviours_probed ~on_reject:(fun _ -> incr rejected) m p <> expected then
        fail p "%s: behaviours_probed differs" m.name;
      if !rejected <> List.length (List.filter Option.is_some classes) then
        fail p "%s: the probe rejects a different number of candidates" m.name)
    models;
  true

let check_all progs = List.for_all (fun p -> List.for_all check_program (with_targets p)) progs

let prop_staged =
  QCheck.Test.make ~name:"staged survivor paths match consistent on generated programs"
    ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000))
    (fun seed -> check_all (Litmus.Generate.generate ~seed 1))

let corpus_size = ref 300

let test_corpus () =
  checked := 0;
  Alcotest.(check bool)
    (Printf.sprintf "%d programs (seed 42) and their targets" !corpus_size)
    true
    (check_all (Litmus.Generate.generate ~seed:42 !corpus_size));
  Alcotest.(check bool) "some candidates checked" true (!checked > 0)

(* Two Arm shapes whose weak outcome only lob's clauses through rfi
   forbid, which no catalog or generated program needs: load buffering
   through a forwarded store ((addr ∪ data); rfi), and an RMW's write
   read back by an acquire load ([codom(rmw)]; rfi; [A ∪ Q]). *)
let rfi_shapes =
  let open Ast in
  let ld reg loc = Load { reg; loc; ord = Axiom.Event.R_plain } in
  let st loc value = Store { loc; value; ord = Axiom.Event.W_plain } in
  [
    {
      name = "LB+data-rfi";
      init = [];
      threads =
        [
          { tid = 0; code = [ ld "r1" "x"; st "y" (Reg "r1"); ld "r2" "y"; st "z" (Reg "r2") ] };
          { tid = 1; code = [ ld "r3" "z"; st "x" (Add (Mul (Reg "r3", Int 0), Int 1)) ] };
        ];
    };
    {
      name = "MP+rmw-rfi-acq";
      init = [];
      threads =
        [
          {
            tid = 0;
            code =
              [
                Cas
                  {
                    reg = None;
                    loc = "x";
                    expect = Int 0;
                    desired = Int 1;
                    kind = Rmw_arm { impl = Lxsx; acq = false; rel = false };
                  };
                Load { reg = "r1"; loc = "x"; ord = Axiom.Event.R_acq };
                st "y" (Int 1);
              ];
          };
          { tid = 1; code = [ ld "r2" "y"; Fence Axiom.Event.F_dmb_full; ld "r3" "x" ] };
        ];
    };
  ]

(* The hand-written litmus tests exercise what generated x86 programs
   and their targets rarely reach: Arm acquire/release and exclusives,
   dependencies through rfi, TCG fences and SC accesses. *)
let test_catalog () =
  let open Litmus.Catalog in
  let tests =
    sc_tests @ x86_tests @ arm_tests_common @ arm_tests_original @ arm_tests_corrected @ tcg_tests
  in
  Alcotest.(check bool)
    "catalog programs and their targets" true
    (check_all
       (rfi_shapes
       @ List.map (fun (_, (t : Ast.test)) -> t.prog) tests
       @ List.concat_map
           (fun (e : Report.Sweep.entry) -> List.map snd e.corpus)
           (Report.Sweep.default_entries ())))

let argv =
  let rec go acc = function
    | "--corpus" :: n :: rest ->
        corpus_size := int_of_string n;
        go acc rest
    | a :: rest -> go (a :: acc) rest
    | [] -> Array.of_list (List.rev acc)
  in
  go [] (Array.to_list Sys.argv)

let () =
  Alcotest.run ~argv "staged"
    [
      ( "corpus",
        [
          Alcotest.test_case "seeded corpus" `Quick test_corpus;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_staged ]);
    ]
