module X = Axiom.Execution

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Inline SVG execution graphs (the report must be self-contained: no
   external assets, no graphviz invocation — the DOT source is embedded
   alongside for offline rendering). *)

let edge_colour = function
  | "po" -> "black"
  | "rf" -> "forestgreen"
  | "co" -> "blue"
  | "fr" -> "darkorange"
  | _ -> "crimson"

let node_w = 150
let node_h = 26
let col_gap = 190
let row_gap = 64
let margin = 30

let svg_of_execution ?(highlights = []) (x : X.t) =
  let tids =
    List.sort_uniq compare
      (List.map (fun (e : Axiom.Event.t) -> e.Axiom.Event.tid) x.X.events)
  in
  (* Column per thread (init first, as tids sort ascending when
     init_tid < 0); row = rank of the event id within its thread, which
     is po order. *)
  let positions = Hashtbl.create 16 in
  let max_rows = ref 0 in
  List.iteri
    (fun col tid ->
      let events =
        List.sort
          (fun (a : Axiom.Event.t) b -> compare a.Axiom.Event.id b.Axiom.Event.id)
          (List.filter
             (fun (e : Axiom.Event.t) -> e.Axiom.Event.tid = tid)
             x.X.events)
      in
      max_rows := max !max_rows (List.length events);
      List.iteri
        (fun row (e : Axiom.Event.t) ->
          Hashtbl.replace positions e.Axiom.Event.id
            ( margin + (col * col_gap) + (node_w / 2),
              margin + 24 + (row * row_gap) + (node_h / 2) ))
        events)
    tids;
  let width = (2 * margin) + (List.length tids * col_gap) in
  let height = (2 * margin) + 24 + (!max_rows * row_gap) in
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\" class=\"exec\">\n"
    width height width height;
  pf "<defs>\n";
  List.iter
    (fun colour ->
      pf
        "<marker id=\"arr-%s\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" \
         markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">\
         <path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"%s\"/></marker>\n"
        colour colour)
    [ "black"; "forestgreen"; "blue"; "darkorange"; "crimson" ];
  pf "</defs>\n";
  (* Column headers. *)
  List.iteri
    (fun col tid ->
      let name =
        if tid = Axiom.Event.init_tid then "init" else Printf.sprintf "T%d" tid
      in
      pf
        "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" \
         font-weight=\"bold\">%s</text>\n"
        (margin + (col * col_gap) + (node_w / 2))
        (margin + 10) name)
    tids;
  let edge ?label ~family ~extra (a, b) =
    match (Hashtbl.find_opt positions a, Hashtbl.find_opt positions b) with
    | Some (x1, y1), Some (x2, y2) ->
        let colour = edge_colour family in
        let dx = float_of_int (x2 - x1) and dy = float_of_int (y2 - y1) in
        let len = Float.max 1.0 (Float.hypot dx dy) in
        (* Trim endpoints out of the node boxes. *)
        let trim = Float.min (len /. 3.) 22. in
        let ux = dx /. len and uy = dy /. len in
        let fx1 = float_of_int x1 +. (ux *. trim)
        and fy1 = float_of_int y1 +. (uy *. trim)
        and fx2 = float_of_int x2 -. (ux *. trim)
        and fy2 = float_of_int y2 -. (uy *. trim) in
        pf
          "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" \
           stroke=\"%s\"%s marker-end=\"url(#arr-%s)\"/>\n"
          fx1 fy1 fx2 fy2 colour extra colour;
        (match label with
        | Some l when l <> "" ->
            pf
              "<text x=\"%.1f\" y=\"%.1f\" fill=\"%s\" font-size=\"10\" \
               text-anchor=\"middle\">%s</text>\n"
              ((fx1 +. fx2) /. 2.)
              (((fy1 +. fy2) /. 2.) -. 3.)
              colour (html_escape l)
        | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (family, edges) ->
      List.iter
        (fun e ->
          edge
            ?label:(if family = "po" then None else Some family)
            ~family ~extra:"" e)
        edges)
    (Dot.base_edges x);
  List.iter
    (fun { Dot.axiom; cycle } ->
      List.iteri
        (fun i e ->
          edge
            ?label:(if i = 0 then Some axiom else None)
            ~family:"cycle"
            ~extra:" stroke-width=\"2.5\" stroke-dasharray=\"6,3\"" e)
        (Dot.cycle_edges cycle))
    highlights;
  (* Nodes last, over the edge lines. *)
  List.iter
    (fun (e : Axiom.Event.t) ->
      match Hashtbl.find_opt positions e.Axiom.Event.id with
      | None -> ()
      | Some (cx, cy) ->
          let lab =
            Format.asprintf "%d: %a" e.Axiom.Event.id Axiom.Event.pp_label
              e.Axiom.Event.label
          in
          pf
            "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" rx=\"4\" \
             fill=\"#fffef8\" stroke=\"#555\"/>\n"
            (cx - (node_w / 2))
            (cy - (node_h / 2))
            node_w node_h;
          pf
            "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\" \
             font-size=\"11\" font-family=\"monospace\">%s</text>\n"
            cx (cy + 4) (html_escape lab))
    x.X.events;
  pf "</svg>\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Report assembly *)

let style =
  {|body{font-family:system-ui,sans-serif;margin:2em auto;max-width:1100px;color:#222}
h1,h2,h3{font-weight:600}
table{border-collapse:collapse;margin:1em 0}
th,td{border:1px solid #ccc;padding:4px 10px;font-size:13px;text-align:left}
th{background:#f2f2f2}
td.num{text-align:right;font-variant-numeric:tabular-nums}
.ok{color:#1a7f37;font-weight:600}
.bad{color:#b91c1c;font-weight:600}
.zero{color:#bbb}
details{margin:.5em 0}
pre{background:#f7f7f7;border:1px solid #ddd;padding:8px;font-size:12px;overflow-x:auto}
svg.exec{border:1px solid #eee;background:#fff;margin:.5em 0;max-width:100%;height:auto}
.witness{border:1px solid #ddd;border-radius:6px;padding:0 1em;margin:1em 0}
.blind{color:#92400e}|}

let section buf title f =
  Buffer.add_string buf (Printf.sprintf "<h2>%s</h2>\n" (html_escape title));
  f buf

let pp_behaviour_str (b : Litmus.Enumerate.behaviour) =
  Format.asprintf "%a" Litmus.Enumerate.pp_behaviour b

let sweep_table buf (cells : Sweep.cell list) =
  Buffer.add_string buf
    "<table><tr><th>scheme</th><th>program</th><th>verdict</th><th>src \
     behaviours</th><th>tgt behaviours</th><th>extra</th></tr>\n";
  List.iter
    (fun (c : Sweep.cell) ->
      let r = c.Sweep.report in
      Buffer.add_string buf
        (Printf.sprintf
           "<tr><td>%s</td><td>%s</td><td class=\"%s\">%s</td><td \
            class=\"num\">%d</td><td class=\"num\">%d</td><td \
            class=\"num\">%d</td></tr>\n"
           (html_escape c.Sweep.scheme)
           (html_escape c.Sweep.program)
           (if r.Mapping.Check.ok then "ok" else "bad")
           (if r.Mapping.Check.ok then "refines" else "VIOLATION")
           r.Mapping.Check.src_behaviours r.Mapping.Check.tgt_behaviours
           (List.length r.Mapping.Check.extra)))
    cells;
  Buffer.add_string buf "</table>\n"

let witness_section buf (cells : Sweep.cell list) =
  let failing =
    List.filter (fun (c : Sweep.cell) -> c.Sweep.witnesses <> []) cells
  in
  if failing = [] then
    Buffer.add_string buf "<p>No witnesses captured (all checks refine).</p>\n"
  else
    List.iter
      (fun (c : Sweep.cell) ->
        Buffer.add_string buf
          (Printf.sprintf "<h3>%s: %s</h3>\n"
             (html_escape c.Sweep.scheme)
             (html_escape c.Sweep.program));
        List.iteri
          (fun i (w : Mapping.Witness.t) ->
            Buffer.add_string buf "<div class=\"witness\">\n";
            Buffer.add_string buf
              (Printf.sprintf
                 "<p>Witness %d — extra target behaviour <code>%s</code></p>\n"
                 (i + 1)
                 (html_escape (pp_behaviour_str w.Mapping.Witness.behaviour)));
            let highlights =
              List.filter_map
                (function
                  | Axiom.Explain.Violates { axiom; cycle } ->
                      Some { Dot.axiom; cycle }
                  | Axiom.Explain.Consistent -> None)
                w.Mapping.Witness.violations
            in
            List.iter
              (function
                | Axiom.Explain.Violates { axiom; _ } ->
                    Buffer.add_string buf
                      (Printf.sprintf
                         "<p>source model violation: <b class=\"bad\">%s</b></p>\n"
                         (html_escape axiom))
                | Axiom.Explain.Consistent -> ())
              w.Mapping.Witness.violations;
            Buffer.add_string buf
              "<p>Consistent <em>target</em> execution exhibiting the \
               behaviour:</p>\n";
            Buffer.add_string buf
              (svg_of_execution w.Mapping.Witness.target);
            (match w.Mapping.Witness.forbidden with
            | None -> ()
            | Some fx ->
                Buffer.add_string buf
                  "<p>Forbidden <em>source</em> candidate, violated-axiom \
                   cycle highlighted:</p>\n";
                Buffer.add_string buf (svg_of_execution ~highlights fx);
                Buffer.add_string buf
                  (Printf.sprintf
                     "<details><summary>DOT source</summary><pre>%s</pre>\
                      </details>\n"
                     (html_escape
                        (Dot.render
                           ~name:(c.Sweep.scheme ^ ": " ^ c.Sweep.program)
                           ~highlights fx))));
            Buffer.add_string buf "</div>\n")
          c.Sweep.witnesses;
        match c.Sweep.shrunk with
        | None -> ()
        | Some p ->
            Buffer.add_string buf
              (Printf.sprintf
                 "<details><summary>Shrunk counterexample (%d \
                  instructions)</summary><pre>%s</pre></details>\n"
                 (Mapping.Witness.instruction_count p)
                 (html_escape (Format.asprintf "%a" Litmus.Ast.pp_prog p))))
      failing

let coverage_section buf cov models =
  let counts = Coverage.counts cov in
  if counts = [] then
    Buffer.add_string buf
      "<p>No coverage recorded (run with the coverage probe enabled).</p>\n"
  else begin
    (* One matrix per source model: rows = scheme / program, columns =
       the model's axioms in checking order.  Cells read an index built
       once, so rendering stays linear in the cells. *)
    let index = Hashtbl.create (List.length counts) in
    List.iter (fun (k, n) -> Hashtbl.replace index k n) counts;
    let model_names =
      List.sort_uniq compare
        (List.map (fun ((k : Coverage.key), _) -> k.Coverage.model) counts)
    in
    List.iter
      (fun model_name ->
        let axioms =
          match
            List.find_opt
              (fun (m : Axiom.Model.t) -> m.Axiom.Model.name = model_name)
              models
          with
          | Some m -> Coverage.axioms_of_model m
          | None ->
              List.sort_uniq compare
                (List.filter_map
                   (fun ((k : Coverage.key), _) ->
                     if k.Coverage.model = model_name then
                       Some k.Coverage.axiom
                     else None)
                   counts)
        in
        let rows =
          List.sort_uniq compare
            (List.filter_map
               (fun ((k : Coverage.key), _) ->
                 if k.Coverage.model = model_name then
                   Some (k.Coverage.scheme, k.Coverage.program)
                 else None)
               counts)
        in
        Buffer.add_string buf
          (Printf.sprintf "<h3>Model: %s</h3>\n<table><tr><th>scheme</th>\
                           <th>program</th>"
             (html_escape model_name));
        List.iter
          (fun a ->
            Buffer.add_string buf
              (Printf.sprintf "<th>%s</th>" (html_escape a)))
          axioms;
        Buffer.add_string buf "</tr>\n";
        List.iter
          (fun (scheme, program) ->
            Buffer.add_string buf
              (Printf.sprintf "<tr><td>%s</td><td>%s</td>"
                 (html_escape scheme) (html_escape program));
            List.iter
              (fun axiom ->
                let n =
                  Option.value ~default:0
                    (Hashtbl.find_opt index
                       { Coverage.scheme; program; model = model_name; axiom })
                in
                Buffer.add_string buf
                  (if n = 0 then "<td class=\"num zero\">0</td>"
                   else Printf.sprintf "<td class=\"num\">%d</td>" n))
              axioms;
            Buffer.add_string buf "</tr>\n")
          rows;
        Buffer.add_string buf "</table>\n")
      model_names;
    match Coverage.blind_spots cov models with
    | [] ->
        Buffer.add_string buf
          "<p>Every axiom of every swept model discriminates at least one \
           rejection: no blind spots.</p>\n"
    | spots ->
        Buffer.add_string buf
          "<p class=\"blind\">Never-exercised axioms (no rejection in the \
           sweep is attributed to them):</p>\n<ul>\n";
        List.iter
          (fun (m, a) ->
            Buffer.add_string buf
              (Printf.sprintf "<li class=\"blind\">%s — %s</li>\n"
                 (html_escape m) (html_escape a)))
          spots;
        Buffer.add_string buf "</ul>\n"
  end

let metrics_section buf (snap : Obs.Metrics.snapshot) =
  let table title rows =
    if rows <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf
           "<h3>%s</h3>\n<table><tr><th>name</th><th>value</th></tr>\n" title);
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf
               "<tr><td><code>%s</code></td><td class=\"num\">%s</td></tr>\n"
               (html_escape name) v))
        rows;
      Buffer.add_string buf "</table>\n"
    end
  in
  if
    snap.Obs.Metrics.counters = []
    && snap.Obs.Metrics.gauges = []
    && snap.Obs.Metrics.histograms = []
  then
    Buffer.add_string buf
      "<p>No metrics recorded (obs registry empty or disabled).</p>\n"
  else begin
    table "Counters"
      (List.map
         (fun (n, v) -> (n, string_of_int v))
         snap.Obs.Metrics.counters);
    table "Gauges"
      (List.map (fun (n, v) -> (n, string_of_int v)) snap.Obs.Metrics.gauges);
    table "Histograms"
      (List.map
         (fun (n, (h : Obs.Metrics.hist_snap)) ->
           ( n,
             Printf.sprintf "count=%d sum=%d" h.Obs.Metrics.count
               h.Obs.Metrics.sum ))
         snap.Obs.Metrics.histograms)
  end

let render ?(title = "Risotto refinement report") ?metrics ?coverage
    ?(models = []) (cells : Sweep.cell list) =
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf "<!DOCTYPE html>\n<html lang=\"en\"><head>\n";
  Buffer.add_string buf "<meta charset=\"utf-8\">\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>%s</title>\n" (html_escape title));
  Buffer.add_string buf (Printf.sprintf "<style>%s</style>\n" style);
  Buffer.add_string buf "</head><body>\n";
  Buffer.add_string buf
    (Printf.sprintf "<h1>%s</h1>\n" (html_escape title));
  let failing = Sweep.failing cells in
  Buffer.add_string buf
    (Printf.sprintf
       "<p>%d refinement checks, <span class=\"%s\">%d violations</span>.</p>\n"
       (List.length cells)
       (if failing = [] then "ok" else "bad")
       (List.length failing));
  section buf "Refinement sweep" (fun buf -> sweep_table buf cells);
  section buf "Witnesses" (fun buf -> witness_section buf cells);
  (match coverage with
  | None -> ()
  | Some cov ->
      section buf "Axiom coverage" (fun buf -> coverage_section buf cov models));
  (match metrics with
  | None -> ()
  | Some snap ->
      section buf "Metrics snapshot" (fun buf -> metrics_section buf snap));
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Directory output *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write ~dir ?title ?metrics ?coverage ?models (cells : Sweep.cell list) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref [] in
  List.iter
    (fun (c : Sweep.cell) ->
      List.iteri
        (fun i w ->
          let file =
            Printf.sprintf "witness-%s-%s-%d.json"
              (sanitize c.Sweep.scheme)
              (sanitize c.Sweep.program)
              (i + 1)
          in
          write_file (Filename.concat dir file)
            (Json.to_string (Sweep.witness_json c w) ^ "\n");
          written := file :: !written)
        c.Sweep.witnesses)
    cells;
  let html = render ?title ?metrics ?coverage ?models cells in
  write_file (Filename.concat dir "report.html") html;
  ("report.html", List.rev !written)
