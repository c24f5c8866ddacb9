(* One candidate pass per source against its images enumerated alone.
   A source program is checked with, as images, itself under x86, its
   target under every mapping scheme of the sweep, and every
   fence-deletion variant of each target, each under the scheme's
   target model (equal programs merged, as the planner merges them).
   For every (image, model), [Enumerate.pass]'s behaviours equal
   [Enumerate.behaviours] on the image alone, and the probed pass's
   behaviours and rejection counts equal [behaviours_probed_many] on
   the image alone.  Programs: test/checker_corpus.ml's generator, the
   x86 programs of its catalog (the atomics corpus among them: the
   generator draws only compare-and-swap, so fetch-and-add and exchange
   images, whose runs the pass derives from the source's, come from
   there), and its seeded sample (the first 100 without [--corpus N]).
   The zip's refusals (the Figure-10 eliminations, an image past the
   event bound) keep their verdicts. *)

module Ast = Litmus.Ast
module En = Litmus.Enumerate
module Min = Mapping.Minimality

let fail = Checker_corpus.fail

let images_checked = ref 0

let check_program (p : Ast.prog) =
  let images = Checker_corpus.images p in
  List.iter
    (fun (q, _) -> if not (En.zips p q) then fail p "image %s does not zip" q.Ast.name)
    images;
  En.clear_caches ();
  let pruned = En.pass ~probe:false p images and probed = En.pass ~probe:true p images in
  let _, misses = En.cache_stats () in
  if misses <> 2 then fail p "%d enumerations for two passes" misses;
  List.iteri
    (fun i (q, models) ->
      incr images_checked;
      let alone = En.behaviours_probed_many models q in
      List.iter2
        (fun (m : Axiom.Model.t) (name, (bs, rejects)) ->
          if name <> m.name then fail p "image %d: models out of order" i;
          if rejects <> [] then fail p "image %d: a pruned pass counted rejections" i;
          if bs <> En.behaviours m q then fail p "image %s under %s: behaviours differ" q.name m.name)
        models (List.nth pruned i);
      if List.nth probed i <> alone then
        fail p "image %s: probed behaviours or rejection counts differ" q.name)
    images;
  true

let check_all = List.for_all check_program

let prop_shared =
  QCheck.Test.make ~name:"one pass = each image alone on generated programs" ~count:20
    Checker_corpus.arb_generated check_program

let test_corpus () =
  images_checked := 0;
  let sample = Checker_corpus.sample 100 in
  Alcotest.(check bool)
    (Printf.sprintf "%d programs (seed %d) and their images" (List.length sample) Checker_corpus.seed)
    true (check_all sample);
  Alcotest.(check bool) "some images checked" true (!images_checked > 0)

let test_catalog () =
  Alcotest.(check bool)
    "catalog programs and their images" true
    (check_all (Checker_corpus.x86_catalog ()))

(* The zip refuses what is not access-preserving: the FMR pseudo-scheme
   (one RAW elimination) and a Figure-10 elimination.  Refused images
   take a pass of their own and keep their verdicts. *)
let test_refused () =
  let tcg = Axiom.Tcg_model.model in
  let raw = Mapping.Transform.applications Mapping.Transform.Raw Litmus.Catalog.fmr_tcg_src in
  let waw =
    List.concat_map
      (fun (_, p) -> List.map (fun t -> (p, t)) (Mapping.Transform.applications Mapping.Transform.Waw p))
      Mapping.Transform.corpus
  in
  Alcotest.(check bool) "some eliminations" true (raw <> [] && waw <> []);
  List.iter
    (fun (src, tgt) ->
      Alcotest.(check bool) (tgt.Ast.name ^ " is refused") false (En.zips src tgt);
      En.clear_caches ();
      let results = En.pass ~probe:false src [ (src, [ tcg ]); (tgt, [ tcg ]) ] in
      let _, misses = En.cache_stats () in
      Alcotest.(check int) (tgt.name ^ ": a pass of its own") 2 misses;
      let report =
        Mapping.Check.assemble ~scheme:"" ~program:""
          ~src:(fst (snd (List.hd (List.nth results 0))))
          ~tgt:(fst (snd (List.hd (List.nth results 1))))
      in
      let alone = Mapping.Check.refines ~src_model:tcg ~tgt_model:tcg ~src ~tgt in
      Alcotest.(check bool) (tgt.name ^ " keeps its verdict") alone.ok report.ok)
    (List.map (fun t -> (Litmus.Catalog.fmr_tcg_src, t)) raw @ waw);
  (* The FMR cell still fails. *)
  let fmr =
    List.find (fun (e : Report.Sweep.entry) -> e.scheme = "transform-raw") (Report.Sweep.default_entries ())
  in
  let cells =
    Mapping.Check.check_scheme ~name:fmr.scheme fmr.f ~src_model:fmr.src_model
      ~tgt_model:fmr.tgt_model fmr.corpus
  in
  Alcotest.(check bool) "FMR still fails" false (Mapping.Check.all_ok cells)

(* A source that fits the event bound whose image does not: the image
   is refused, and the sweep reports the image's own typed failure. *)
let test_image_past_bound () =
  let src =
    Litmus.Dsl.prog "fits" [ ("X", 0) ]
      [ [ Litmus.Dsl.if_else (Ast.Int 0) (List.init 62 (fun i -> Litmus.Dsl.st "X" i)) [] ] ]
  in
  let entry =
    List.find (fun (e : Report.Sweep.entry) -> e.scheme = "fig7a/x86->tcg") (Report.Sweep.default_entries ())
  in
  let tgt = entry.f src in
  Alcotest.(check bool) "the image is refused" false (En.zips src tgt);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let corpus = [ ("fits", src); ("MP", Litmus.Catalog.mp_x86) ] in
  let j = (Report.Sweep.run_generated [ { entry with corpus } ]).Report.Sweep.gen_journaled in
  (match j.Report.Sweep.failures with
  | [ (_, "fits", Parallel.Supervise.Quarantined { last; _ }) ] ->
      Alcotest.(check bool) "the refusal names the image" true
        (match last.Parallel.Pool.exn with
        | Invalid_argument msg -> contains msg tgt.name
        | _ -> false)
  | _ -> Alcotest.fail "expected one quarantined cell for the image past the bound");
  Alcotest.(check (list string))
    "the other cell has a verdict" [ "MP" ]
    (List.map (fun (c : Report.Sweep.cell) -> c.Report.Sweep.program) j.Report.Sweep.cells)

(* ------------------------------------------------------------------ *)
(* The executions [Enumerate.fold] hands out                           *)

module X = Axiom.Execution
module E = Axiom.Event
module Rel = Relalg.Rel

(* [x] is well formed, po is exactly the (thread, id) order of its own
   events, and its other relations relate only its own events: the pass
   checks a combo's candidates on its shape's skeleton, and the
   execution it hands out must carry the combo's own events (values
   included) under relations that fit them. *)
let check_execution p i k (x : X.t) =
  let where = Printf.sprintf "image %d, candidate %d" i k in
  (match X.well_formed x with Ok () -> () | Error e -> fail p "%s: %s" where e);
  let po =
    Rel.of_list
      (List.concat_map
         (fun (a : E.t) ->
           List.filter_map
             (fun (b : E.t) ->
               if (not (E.is_init a)) && a.tid = b.tid && a.id < b.id then Some (a.id, b.id)
               else None)
             x.events)
         x.events)
  in
  if not (Rel.equal po x.po) then fail p "%s: po does not fit the events" where;
  let ids = Relalg.Iset.of_list (List.map (fun (e : E.t) -> e.id) x.events) in
  let all = Rel.cross ids ids in
  if not (List.for_all (fun r -> Rel.subset r all) [ X.rmw x; x.data; x.ctrl ]) then
    fail p "%s: a relation names an event it lacks" where

(* Every execution [fold] hands out over [images] (the first, [p]
   itself), pruned and probed, passes [check_execution], and each
   image's has its source candidate's behaviour. *)
let check_executions (p : Ast.prog) images =
  List.iter
    (fun probe ->
      let src = Hashtbl.create 64 in
      En.fold ~probe p images
        (fun () i k x regs _ ->
          let x = Lazy.force x in
          check_execution p i k x;
          let b = (X.behaviour x, regs) in
          if i = 0 then Hashtbl.replace src k b
          else
            match Hashtbl.find_opt src k with
            | Some b' when b' = b -> ()
            | Some _ -> fail p "image %d, candidate %d: behaviour differs from the source's" i k
            | None -> fail p "image %d, candidate %d: no source candidate" i k)
        ())
    [ false; true ];
  true

(* A program under [models] with each of its fence-deletion variants. *)
let own_images (p : Ast.prog) models =
  (p, models) :: List.init (Min.fence_count p) (fun i -> (Min.delete_fence p i, models))

let test_executions () =
  let x86_programs =
    Checker_corpus.x86_catalog () @ Checker_corpus.sample 100
  in
  List.iter
    (fun p -> Alcotest.(check bool) p.Ast.name true (check_executions p (Checker_corpus.images p)))
    x86_programs;
  let arm = Axiom.Arm_cats.model in
  List.iter
    (fun (file, models) ->
      let p = (Checker_corpus.read_litmus file).prog in
      Alcotest.(check bool) file true (check_executions p (own_images p models)))
    [
      ("FMR.litmus", [ Axiom.Tcg_model.model ]);
      ("MPQ-qemu.litmus", [ arm Axiom.Arm_cats.Corrected; arm Axiom.Arm_cats.Original ]);
    ]

let () =
  Alcotest.run ~argv:Checker_corpus.argv "shared"
    [
      ( "pass = alone",
        [
          Alcotest.test_case "seeded corpus" `Quick test_corpus;
          Alcotest.test_case "catalog" `Quick test_catalog;
          QCheck_alcotest.to_alcotest prop_shared;
        ] );
      ( "executions",
        [ Alcotest.test_case "well formed, own events, source behaviour" `Quick test_executions ] );
      ( "zip",
        [
          Alcotest.test_case "eliminations refused" `Quick test_refused;
          Alcotest.test_case "image past the event bound" `Quick test_image_past_bound;
        ] );
    ]
