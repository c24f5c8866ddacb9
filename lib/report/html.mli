(** Self-contained HTML refinement report: one file, no external
    assets (inline CSS, execution graphs as inline SVG with the DOT
    source embedded in a [<details>] block).

    Output is deterministic for equal inputs — no timestamps, and every
    collection is rendered in sorted order — so two runs over the same
    repo state produce byte-identical reports (pinned by
    [test/test_report.ml]). *)

(** Inline SVG of an execution: threads as columns (init leftmost),
    events in po order top-to-bottom, po/rf/co/fr edges colour-coded and
    [highlights] cycles overlaid as dashed crimson edges labelled with
    the axiom name. *)
val svg_of_execution :
  ?highlights:Dot.highlight list -> Axiom.Execution.t -> string

(** Render the full report: sweep table, witness graphs, coverage
    matrix (with [models] supplying the axiom row space for blind-spot
    detection) and metrics snapshot. *)
val render :
  ?title:string ->
  ?metrics:Obs.Metrics.snapshot ->
  ?coverage:Coverage.t ->
  ?models:Axiom.Model.t list ->
  Sweep.cell list ->
  string

(** Write [report.html] plus one [witness-<scheme>-<program>-<n>.json]
    per captured witness into [dir] (created if missing); returns the
    HTML filename and the witness filenames written. *)
val write :
  dir:string ->
  ?title:string ->
  ?metrics:Obs.Metrics.snapshot ->
  ?coverage:Coverage.t ->
  ?models:Axiom.Model.t list ->
  Sweep.cell list ->
  string * string list
