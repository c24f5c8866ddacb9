(* The witness-observability layer: DOT/SVG witness rendering, the
   greedy counterexample shrinker, Explain.check_all vs check,
   axiom-coverage accounting, JSON round-tripping and the determinism
   and off-by-default contracts of the HTML report. *)

module En = Litmus.Enumerate
module W = Mapping.Witness

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let x86 = Axiom.X86_tso.model
let tcg = Axiom.Tcg_model.model
let arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original
let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected

let qemu_gcc10 =
  let fe, be = Mapping.Schemes.qemu_preset in
  Mapping.Schemes.x86_to_arm fe be

let qemu_gcc9 =
  Mapping.Schemes.(
    x86_to_arm Qemu_frontend { lowering = `Qemu; rmw = Helper_gcc9 })

let apply_raw p =
  match Mapping.Transform.applications Mapping.Transform.Raw p with
  | t :: _ -> t
  | [] -> p

(* The paper's four bug schemes, as (scheme fn, src/tgt models, source
   program) — each must yield a witness with a named violated axiom. *)
let bug_cases =
  [
    ("MPQ/qemu-gcc10", qemu_gcc10, x86, arm_fix, Litmus.Catalog.mpq_x86);
    ("SBQ/qemu-gcc9", qemu_gcc9, x86, arm_fix, Litmus.Catalog.sbq_x86);
    ( "SBAL/armcats-direct",
      Mapping.Schemes.x86_to_arm_direct_armcats,
      x86,
      arm_orig,
      Litmus.Catalog.sbal_x86 );
    ("FMR/transform-raw", apply_raw, tcg, tcg, Litmus.Catalog.fmr_tcg_src);
  ]

let capture_case (f, src_model, tgt_model, src) =
  let tgt = f src in
  let report = Mapping.Check.refines ~src_model ~tgt_model ~src ~tgt in
  (report, W.capture ~src_model ~tgt_model ~src ~tgt report)

(* ------------------------------------------------------------------ *)
(* Witness capture *)

let test_capture_bug_schemes () =
  List.iter
    (fun (name, f, src_model, tgt_model, src) ->
      let report, ws = capture_case (f, src_model, tgt_model, src) in
      check_bool (name ^ " fails refinement") false report.Mapping.Check.ok;
      check_bool (name ^ " has witnesses") true (ws <> []);
      List.iter
        (fun (w : W.t) ->
          check_bool
            (name ^ " target execution exhibits the extra behaviour")
            true
            (Axiom.Execution.behaviour w.W.target = w.W.behaviour.En.mem);
          check_bool (name ^ " carries a forbidden source execution") true
            (w.W.forbidden <> None);
          check_bool
            (name ^ " names at least one violated axiom with a cycle")
            true
            (List.exists
               (function
                 | Axiom.Explain.Violates { axiom; cycle } ->
                     axiom <> "" && cycle <> []
                 | Axiom.Explain.Consistent -> false)
               w.W.violations))
        ws)
    bug_cases

let test_capture_ok_scheme_empty () =
  let fe, be = Mapping.Schemes.risotto_rmw2_preset in
  let f = Mapping.Schemes.x86_to_arm fe be in
  let src = Litmus.Catalog.mpq_x86 in
  let report, ws = capture_case (f, x86, arm_fix, src) in
  check_bool "risotto rmw2 refines on MPQ" true report.Mapping.Check.ok;
  check_int "no witnesses for a passing check" 0 (List.length ws)

(* ------------------------------------------------------------------ *)
(* DOT rendering *)

let count_substring hay needle =
  let n = String.length needle in
  let rec go from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if i + n <= String.length hay && String.sub hay i n = needle then
          go (i + 1) (acc + 1)
        else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

let test_dot_counts () =
  List.iter
    (fun (name, f, src_model, tgt_model, src) ->
      let _, ws = capture_case (f, src_model, tgt_model, src) in
      let w = List.hd ws in
      let fx = Option.get w.W.forbidden in
      let highlights =
        List.filter_map
          (function
            | Axiom.Explain.Violates { axiom; cycle } ->
                Some { Report.Dot.axiom; cycle }
            | Axiom.Explain.Consistent -> None)
          w.W.violations
      in
      let dot = Report.Dot.render ~name ~highlights fx in
      (* Nodes: one "eN [label=..." line per event. *)
      let events = List.length fx.Axiom.Execution.events in
      let node_lines = count_substring dot "[label=\"" in
      let base_edges =
        List.fold_left
          (fun acc (_, es) -> acc + List.length es)
          0
          (Report.Dot.base_edges fx)
      in
      let cycle_edges =
        List.fold_left
          (fun acc { Report.Dot.cycle; _ } ->
            acc + List.length (Report.Dot.cycle_edges cycle))
          0 highlights
      in
      let edges = count_substring dot " -> " in
      (* Every node line and every edge line carries one label attribute. *)
      check_int (name ^ " node+edge labels") (events + edges) node_lines;
      check_int (name ^ " edge count") (base_edges + cycle_edges) edges;
      check_bool (name ^ " has a highlighted cycle") true (cycle_edges > 0);
      check_bool (name ^ " highlight colour present") true
        (count_substring dot "crimson" > 0);
      (* The violated axiom is named in the DOT output. *)
      List.iter
        (fun { Report.Dot.axiom; _ } ->
          check_bool
            (name ^ " names axiom " ^ axiom)
            true
            (count_substring dot axiom > 0))
        highlights)
    bug_cases

(* ------------------------------------------------------------------ *)
(* Shrinker *)

let test_shrinker () =
  List.iter
    (fun (name, f, src_model, tgt_model, src) ->
      let shrunk = W.shrink ~scheme:f ~src_model ~tgt_model src in
      check_bool
        (name ^ " shrunk no larger than input")
        true
        (W.instruction_count shrunk <= W.instruction_count src);
      let r =
        Mapping.Check.refines ~src_model ~tgt_model ~src:shrunk
          ~tgt:(f shrunk)
      in
      check_bool (name ^ " shrunk still fails refinement") false
        r.Mapping.Check.ok)
    bug_cases

let test_shrinker_passing_unchanged () =
  let fe, be = Mapping.Schemes.risotto_rmw2_preset in
  let f = Mapping.Schemes.x86_to_arm fe be in
  let src = Litmus.Catalog.mpq_x86 in
  let shrunk = W.shrink ~scheme:f ~src_model:x86 ~tgt_model:arm_fix src in
  check_int "passing program returned unchanged"
    (W.instruction_count src)
    (W.instruction_count shrunk)

(* ------------------------------------------------------------------ *)
(* Explain.check_all vs check over the corpus's candidate executions *)

let test_check_all_superset () =
  let models = [ x86; arm_orig; arm_fix; tcg; Axiom.Sc_model.model ] in
  let progs = Litmus.Catalog.mapping_corpus in
  let checked = ref 0 in
  List.iter
    (fun (m : Axiom.Model.t) ->
      List.iter
        (fun (_, p) ->
          List.iter
            (fun (x, _) ->
              incr checked;
              let one = Axiom.Explain.check m x in
              let all = Axiom.Explain.check_all m x in
              match one with
              | Axiom.Explain.Consistent ->
                  check_bool "check_all empty iff check consistent" true
                    (all = [])
              | v ->
                  check_bool "check's verdict heads check_all" true
                    (match all with v' :: _ -> v' = v | [] -> false))
            (En.candidates p))
        progs)
    models;
  (* 76 candidate executions across the corpus, times five models. *)
  check_bool "exercised a real corpus" true (!checked > 300)

(* ------------------------------------------------------------------ *)
(* Coverage accounting and the off-by-default contract *)

let run_small_sweep ?coverage () =
  let entries =
    List.filter
      (fun (e : Report.Sweep.entry) ->
        List.mem e.Report.Sweep.scheme
          [ "qemu-gcc10/arm-fix"; "transform-raw" ])
      (Report.Sweep.default_entries ())
  in
  (Report.Sweep.run_generated ?coverage entries).Report.Sweep.gen_journaled
    .cells

let test_coverage_counters_off_when_disabled () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let cov = Report.Coverage.create () in
  let cells = run_small_sweep ~coverage:cov () in
  (* The in-process matrix fills regardless... *)
  check_bool "matrix has cells" true (Report.Coverage.counts cov <> []);
  check_bool "discriminating axioms include the x86 global axiom" true
    (List.exists
       (fun ((k : Report.Coverage.key), n) ->
         k.Report.Coverage.axiom = "x86 (GHB)" && n > 0)
       (Report.Coverage.counts cov));
  (* ...but with obs disabled every axiom.reject.* counter reads 0. *)
  let snap = Obs.Metrics.snapshot () in
  let total =
    List.fold_left
      (fun acc (_, v) -> acc + v)
      0
      (Obs.Metrics.counters_with_prefix snap Report.Coverage.metric_prefix)
  in
  check_int "obs counters all zero while disabled" 0 total;
  (* And the verdicts are the same as a probe-free run. *)
  let plain = run_small_sweep () in
  check_bool "verdicts identical with and without the coverage probe" true
    (List.map (fun (c : Report.Sweep.cell) -> c.Report.Sweep.report) cells
    = List.map (fun (c : Report.Sweep.cell) -> c.Report.Sweep.report) plain)

let test_coverage_counters_on_when_enabled () =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let cov = Report.Coverage.create () in
  ignore (run_small_sweep ~coverage:cov ());
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  let prefixed =
    Obs.Metrics.counters_with_prefix snap Report.Coverage.metric_prefix
  in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 prefixed in
  check_bool "obs counters count while enabled" true (total > 0);
  (* Obs counters agree with the in-process matrix, per (model, axiom). *)
  List.iter
    (fun (suffix, v) ->
      let matrix_total =
        List.fold_left
          (fun acc ((k : Report.Coverage.key), n) ->
            if k.Report.Coverage.model ^ "/" ^ k.Report.Coverage.axiom = suffix
            then acc + n
            else acc)
          0 (Report.Coverage.counts cov)
      in
      check_int ("counter matches matrix: " ^ suffix) matrix_total v)
    prefixed

let test_blind_spots () =
  let cov = Report.Coverage.create () in
  ignore (run_small_sweep ~coverage:cov ());
  let models = [ x86; tcg ] in
  let spots = Report.Coverage.blind_spots cov models in
  (* Blind spots are exactly the (model, axiom) pairs with no count. *)
  List.iter
    (fun (m, a) ->
      check_bool
        ("blind spot never counted: " ^ m ^ "/" ^ a)
        false
        (List.exists
           (fun ((k : Report.Coverage.key), n) ->
             k.Report.Coverage.model = m && k.Report.Coverage.axiom = a && n > 0)
           (Report.Coverage.counts cov)))
    spots;
  (* The row space is complete: counted + blind = all axioms. *)
  List.iter
    (fun (m : Axiom.Model.t) ->
      let axioms = Report.Coverage.axioms_of_model m in
      check_bool "models decompose into axioms" true (axioms <> []);
      List.iter
        (fun a ->
          let counted =
            List.exists
              (fun ((k : Report.Coverage.key), n) ->
                k.Report.Coverage.model = m.Axiom.Model.name
                && k.Report.Coverage.axiom = a
                && n > 0)
              (Report.Coverage.counts cov)
          in
          let blind = List.mem (m.Axiom.Model.name, a) spots in
          check_bool
            ("axiom counted xor blind: " ^ m.Axiom.Model.name ^ "/" ^ a)
            true (counted <> blind))
        axioms)
    models

(* ------------------------------------------------------------------ *)
(* JSON *)

let rec arb_json depth =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Report.Json.Null;
        map (fun b -> Report.Json.Bool b) bool;
        map (fun i -> Report.Json.Int i) int;
        map (fun s -> Report.Json.String s) (string_size (0 -- 12));
      ]
  in
  if depth = 0 then scalar
  else
    oneof
      [
        scalar;
        map
          (fun xs -> Report.Json.List xs)
          (list_size (0 -- 4) (arb_json (depth - 1)));
        map
          (fun kvs -> Report.Json.Obj kvs)
          (list_size (0 -- 4)
             (pair (string_size (0 -- 8)) (arb_json (depth - 1))));
      ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"JSON parse . emit = id" ~count:300
    (QCheck.make (arb_json 3))
    (fun v ->
      match Report.Json.of_string (Report.Json.to_string v) with
      | Ok v' -> v = v'
      | Error _ -> false)

(* One document with every JSON value kind, written by hand rather than
   by [to_string]: free whitespace, a nested object, a negative int and
   escapes. *)
let test_json_parse_mixed () =
  let src =
    {|{ "version": 1, "name": "mp", "ok": true,
       "ratio": 0.0123, "nested": { "a": [1, 2, -3] },
       "s": "q\"uo\nte", "none": null }|}
  in
  match Report.Json.of_string src with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      check_bool "int parsed" true
        (Report.Json.member "version" j = Some (Report.Json.Int 1));
      check_bool "escapes parsed" true
        (Report.Json.member "s" j = Some (Report.Json.String "q\"uo\nte"));
      check_bool "float parsed" true
        (match Report.Json.member "ratio" j with
        | Some (Report.Json.Float f) -> Float.abs (f -. 0.0123) < 1e-9
        | _ -> false);
      check_bool "nested list" true
        (match Report.Json.member "nested" j with
        | Some nested ->
            Report.Json.member "a" nested
            = Some
                (Report.Json.List
                   [ Report.Json.Int 1; Report.Json.Int 2; Report.Json.Int (-3) ])
        | None -> false)

(* ------------------------------------------------------------------ *)
(* Witness artifacts and the HTML report *)

let test_witness_json_envelope () =
  let cells =
    (Report.Sweep.run_generated ~capture:true
       (List.filter
          (fun (e : Report.Sweep.entry) ->
            e.Report.Sweep.scheme = "transform-raw")
          (Report.Sweep.default_entries ())))
      .Report.Sweep.gen_journaled.cells
  in
  let cell =
    List.find (fun (c : Report.Sweep.cell) -> c.Report.Sweep.witnesses <> []) cells
  in
  let j =
    Report.Sweep.witness_json cell (List.hd cell.Report.Sweep.witnesses)
  in
  check_bool "envelope schema_version" true
    (Report.Json.member "schema_version" j = Some (Report.Json.Int 1));
  check_bool "envelope section" true
    (Report.Json.member "section" j = Some (Report.Json.String "witness"));
  check_bool "scheme recorded" true
    (Report.Json.member "scheme" j
    = Some (Report.Json.String "transform-raw"));
  (* The artifact round-trips through the parser. *)
  check_bool "artifact round-trips" true
    (Report.Json.of_string (Report.Json.to_string j) = Ok j)

let test_html_deterministic () =
  let render () =
    let cov = Report.Coverage.create () in
    let cells =
      (Report.Sweep.run_generated ~capture:true ~coverage:cov
         (List.filter
            (fun (e : Report.Sweep.entry) ->
              List.mem e.Report.Sweep.scheme
                [ "qemu-gcc10/arm-fix"; "transform-raw" ])
            (Report.Sweep.default_entries ())))
        .Report.Sweep.gen_journaled.cells
    in
    Report.Html.render ~coverage:cov ~models:[ x86; tcg ] cells
  in
  let a = render () and b = render () in
  check_bool "two runs render byte-identical HTML" true (a = b);
  (* Self-contained: no fetched assets.  The SVG xmlns namespace
     identifier is not a fetch. *)
  check_bool "report is self-contained (no external refs)" true
    (not
       (List.exists
          (fun needle ->
            let rec find i =
              i + String.length needle <= String.length a
              && (String.sub a i (String.length needle) = needle
                 || find (i + 1))
            in
            find 0)
          [ "src=\"http"; "href=\"http"; "<script src"; "<link " ]))

(* Every cell of every rendered coverage matrix is the Coverage count of
   its (scheme, program, model, axiom), zeros included. *)
let test_html_coverage_cells () =
  let cov = Report.Coverage.create () in
  let cells = run_small_sweep ~coverage:cov () in
  let html = Report.Html.render ~coverage:cov ~models:[ x86; tcg ] cells in
  let counts = Report.Coverage.counts cov in
  let find_from s i needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = needle then Some i
      else go (i + 1)
    in
    go i
  in
  (* [split s sep]: the pieces of [s] between occurrences of [sep]. *)
  let split s sep =
    let rec go i acc =
      match find_from s i sep with
      | None -> List.rev (String.sub s i (String.length s - i) :: acc)
      | Some j -> go (j + String.length sep) (String.sub s i (j - i) :: acc)
    in
    go 0 []
  in
  let between i l r =
    match find_from html i l with
    | None -> None
    | Some a -> (
        let a = a + String.length l in
        match find_from html a r with
        | None -> None
        | Some b -> Some (String.sub html a (b - a), b + String.length r))
  in
  let unescape s =
    List.fold_left
      (fun s (e, c) -> String.concat c (split s e))
      s
      [ ("&lt;", "<"); ("&gt;", ">"); ("&quot;", "\""); ("&amp;", "&") ]
  in
  (* The contents of each [<open ...>...</close>] cell of a row. *)
  let cells_of row open_ close =
    List.filter_map
      (fun part ->
        match String.index_opt part '>' with
        | Some j ->
            let rest = String.sub part (j + 1) (String.length part - j - 1) in
            Some (unescape (List.hd (split rest close)))
        | None -> None)
      (List.tl (split row open_))
  in
  let rec matrices i acc =
    match between i "<h3>Model: " "</h3>" with
    | None -> List.rev acc
    | Some (model, j) -> (
        match between j "<table>" "</table>" with
        | None -> Alcotest.fail "coverage matrix without a table"
        | Some (table, k) -> matrices k ((unescape model, table) :: acc))
  in
  let ms = matrices 0 [] in
  check_bool "one matrix per model with counts" true
    (List.sort compare (List.map fst ms)
    = List.sort_uniq compare
        (List.map (fun ((k : Report.Coverage.key), _) -> k.Report.Coverage.model) counts));
  let rendered = ref 0 and zeros = ref 0 and nonzero = ref 0 in
  List.iter
    (fun (model, table) ->
      match String.split_on_char '\n' table with
      | header :: rows ->
          let axioms =
            match cells_of header "<th" "</th>" with
            | "scheme" :: "program" :: axioms -> axioms
            | _ -> Alcotest.fail "matrix header"
          in
          List.iter
            (fun row ->
              if row <> "" then
                match cells_of row "<td" "</td>" with
                | scheme :: program :: values ->
                    check_int (model ^ " row width") (List.length axioms)
                      (List.length values);
                    List.iter2
                      (fun axiom v ->
                        let key = { Report.Coverage.scheme; program; model; axiom } in
                        let expected =
                          Option.value ~default:0 (List.assoc_opt key counts)
                        in
                        incr rendered;
                        if expected = 0 then incr zeros else incr nonzero;
                        check_int
                          (Printf.sprintf "%s/%s/%s/%s" scheme program model axiom)
                          expected (int_of_string v))
                      axioms values
                | _ -> Alcotest.fail "matrix row")
            rows
      | [] -> Alcotest.fail "empty matrix")
    ms;
  check_bool "zero cells rendered" true (!zeros > 0);
  check_int "every nonzero count rendered once" (List.length counts) !nonzero;
  check_bool "cells rendered" true (!rendered = !zeros + !nonzero)

let test_html_svg_witnesses () =
  let cells =
    (Report.Sweep.run_generated ~capture:true
       (List.filter
          (fun (e : Report.Sweep.entry) ->
            e.Report.Sweep.scheme = "qemu-gcc10/arm-fix")
          (Report.Sweep.default_entries ())))
      .Report.Sweep.gen_journaled.cells
  in
  let html = Report.Html.render cells in
  check_bool "SVG graphs inlined" true
    (String.length html > 0
    &&
    let rec count i acc =
      match String.index_from_opt html i '<' with
      | Some j
        when j + 4 <= String.length html && String.sub html j 4 = "<svg" ->
          count (j + 1) (acc + 1)
      | Some j -> count (j + 1) acc
      | None -> acc
    in
    count 0 0 >= 2 (* target + forbidden for at least one witness *))

(* ------------------------------------------------------------------ *)

let () =
  (* The off-by-default tests toggle the global registry; make the
     starting state explicit. *)
  Obs.Metrics.disable ();
  Alcotest.run "report"
    [
      ( "witness capture",
        [
          Alcotest.test_case "four bug schemes yield witnesses" `Slow
            test_capture_bug_schemes;
          Alcotest.test_case "passing scheme yields none" `Quick
            test_capture_ok_scheme_empty;
        ] );
      ( "dot",
        [ Alcotest.test_case "node/edge counts and cycles" `Slow test_dot_counts ] );
      ( "shrinker",
        [
          Alcotest.test_case "shrunk still fails, no larger" `Slow test_shrinker;
          Alcotest.test_case "passing input unchanged" `Quick
            test_shrinker_passing_unchanged;
        ] );
      ( "explain",
        [
          Alcotest.test_case "check_all contains check" `Slow
            test_check_all_superset;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "counters zero while obs disabled" `Slow
            test_coverage_counters_off_when_disabled;
          Alcotest.test_case "counters match matrix while enabled" `Slow
            test_coverage_counters_on_when_enabled;
          Alcotest.test_case "blind spots complement the matrix" `Slow
            test_blind_spots;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "parses mixed documents" `Quick
            test_json_parse_mixed;
        ] );
      ( "html",
        [
          Alcotest.test_case "witness artifact envelope" `Slow
            test_witness_json_envelope;
          Alcotest.test_case "deterministic rendering" `Slow
            test_html_deterministic;
          Alcotest.test_case "coverage cells = Coverage counts" `Slow
            test_html_coverage_cells;
          Alcotest.test_case "inline SVG witnesses" `Slow
            test_html_svg_witnesses;
        ] );
    ]
