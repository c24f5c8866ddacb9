(** The refinement sweep behind the witness report: every (scheme,
    corpus program) refinement verdict, optionally decorated with
    captured witnesses, shrunk counterexamples and axiom-coverage
    accounting.

    One runner, {!run_generated}, serves the catalog report, generated
    corpora (reported, and [litmus_run --generate]'s smoke mode) and
    the tests.  Verdicts come from the
    batch planner's jobs ({!Mapping.Check.plan},
    {!Mapping.Check.assemble}) and equal {!Mapping.Check.refines}'s;
    witness capture, the coverage probe and the journal are additive
    and run only when asked for. *)

type entry = {
  scheme : string;
  f : Litmus.Ast.prog -> Litmus.Ast.prog;
  src_model : Axiom.Model.t;
  tgt_model : Axiom.Model.t;
  corpus : (string * Litmus.Ast.prog) list;
}

type cell = {
  scheme : string;
  program : string;
  report : Mapping.Check.report;
  witnesses : Mapping.Witness.t list;  (** [] unless captured *)
  shrunk : Litmus.Ast.prog option;
      (** shrunk source counterexample, for failing cells when captured *)
}

(** The eleven mapping schemes over the mapping corpus: Figures 2 and
    7a at TCG level, and the Qemu, Risotto, Arm-Cats-direct and
    no-fences compositions down to Arm under the original and corrected
    Arm-Cats models. *)
val mapping_entries : unit -> entry list

(** {!mapping_entries}, plus the §3.2 FMR transformation
    counterexample as the pseudo-scheme ["transform-raw"] (source =
    target = TCG model, the mapping is one unsound RAW rewrite).
    Known-failing cells: MPQ under qemu-gcc10 and fig2;
    MPQ/SB+rmws/SBQ/SBAL under qemu-gcc9; SBAL under the arm-orig
    direct/casal schemes; FMR under transform-raw. *)
val default_entries : unit -> entry list

val all_ok : cell list -> bool
val failing : cell list -> cell list

(** {1 Journal records} *)

(** Journal key of a (scheme, program) cell: the two joined by a unit
    separator (0x1F), which neither side contains. *)
val cell_key : string -> string -> string

(** The journal value of a computed cell: its verdict and its coverage
    deltas (key-sorted, as {!Coverage.counts} lists them), JSON-encoded.
    A checkpointed journal holds [(cell_key scheme program,
    verdict_record report deltas)] per completed cell, in sweep
    order. *)
val verdict_record :
  Mapping.Check.report -> (Coverage.key * int) list -> string

(** {1 Generated corpora} *)

(** The schemes a generated sweep checks by default: the paper's
    verified x86→TCG frontend mapping and the corrected RMW lowering
    under both the original and fixed ARM models — sound schemes, so a
    clean generated sweep exits 0.  The two ARM cells map a program to
    the same target, which {!run_generated} plans as one job enumerated
    once under both models; all three share the source's job. *)
val default_generated_schemes : string list

(** [generated_entries ~seed n] generates [n] programs, dedups them
    into shape classes ({!Litmus.Generate.corpus}) and instantiates the
    named schemes (default {!default_generated_schemes}, resolved
    against {!default_entries}) over the class representatives. *)
val generated_entries :
  ?config:Litmus.Generate.config ->
  ?schemes:string list ->
  seed:int ->
  int ->
  Litmus.Generate.corpus * entry list

(** {1 The sweep runner} *)

type journaled = {
  cells : cell list;  (** canonical (entries × corpus) order *)
  failures : (string * string * Parallel.Supervise.failure) list;
      (** (scheme, program, failure) of cells whose job (or scheme)
          timed out or was quarantined this run, one per cell — not
          journaled, retried on resume *)
  replayed : int;  (** cells restored from the journal *)
  computed : int;  (** cells computed this run *)
  recovery : Parallel.Frontier.recovery;
      (** what opening the journal recovered (torn-tail statistics);
          empty without a journal *)
}

type shard_stat = {
  shard_index : int;  (** 1-based *)
  shard_cells : int;
  shard_new_pairs : int;
      (** (model, axiom) coverage pairs first seen in this shard *)
}

type generated = {
  gen_journaled : journaled;
  gen_shards : shard_stat list;
  gen_saturated_after : int option;
      (** [Some s]: no shard after the [s]th discovered a new
          (model, axiom) pair — the corpus saturated the
          discriminating-axiom coverage.  [None]: still discovering in
          the final shard, or no coverage requested. *)
}

(** [run_generated entries] checks every (scheme, program) cell, in
    shards of [shard_size] cells (default 1; values below 1 count as
    1).

    It plans before computing: over every cell the journal does not
    already hold, {!Mapping.Check.plan} makes one job per distinct
    source: one {!Litmus.Enumerate.pass} over the source and its
    targets, each under every model some cell needs it under; the
    schemes producing the targets run first, as supervised tasks on
    [pool].  Each such {e job} runs once, in the first shard
    that needs it, as part of that shard's {!Parallel.Supervise.map}
    batch under [policy] (on [pool] when given): deadlines, retries and
    the [pool-task] chaos hook wrap jobs, not cells.  Later shards assemble
    their reports from the completed jobs.  A job that times out or
    raises (an image past the event bound raises in its source's job)
    yields one typed {!Parallel.Supervise.failure} in [failures] for
    each dependent cell of that shard, and the sweep goes on; the
    next shard or resume that needs the job retries it.  A scheme that
    raises on a program is a failure of that cell alone.

    - [capture] (default false): failing cells carry witnesses
      ({!Mapping.Witness.capture}, at most [max_witnesses] each) and a
      shrunk counterexample.
    - [coverage]: every source-program candidate rejected by the
      source model is accounted via {!Coverage.add}, exactly once per
      cell; [probe_targets] (default false) also accounts the target
      side's rejected candidates under the target model.  A probed job
      enumerates the unpruned candidate product once and counts the
      rejections of each of its models by discriminating axiom
      ({!Litmus.Enumerate.behaviours_probed_many}); a cell's deltas are
      its source and target jobs' counts for its models.
    - [journal]: after each shard's jobs, one pool map assembles its
      cells' reports and encodes and frames each computed cell's
      CRC-guarded {!verdict_record} (verdict + coverage deltas); the
      calling domain then appends them in cell order to the
      {!Parallel.Frontier} journal at that path, with one flush per
      shard, before merging any coverage.  Cells journaled by an
      earlier interrupted run are replayed instead of recomputed —
      verdict rebuilt, coverage deltas merged, witnesses re-derived —
      so a resumed result (and an HTML report rendered from it) is
      byte-identical to an uninterrupted run's.  Failed cells are left
      out of the journal and retried by the next resume.  The journal
      is checkpoint-compacted to canonical order on completion, from
      the records already framed, and closed on every exit.  Without
      [journal], verdicts stay in memory and [recovery] is empty.
    - [journal_chaos] is the [journal-write] chaos site hook
      ({!Parallel.Frontier.open_}); a firing hook tears the append and
      raises {!Parallel.Frontier.Injected_fault}, simulating a crash. *)
val run_generated :
  ?capture:bool ->
  ?coverage:Coverage.t ->
  ?max_witnesses:int ->
  ?policy:Parallel.Supervise.policy ->
  ?pool:Parallel.Pool.t ->
  ?shard_size:int ->
  ?probe_targets:bool ->
  ?journal_chaos:(unit -> bool) ->
  ?journal:string ->
  entry list ->
  generated

val json_of_behaviour : Litmus.Enumerate.behaviour -> Json.t
val json_of_execution : Axiom.Execution.t -> Json.t

(** Self-describing witness artifact with the common envelope
    ([schema_version], [section = "witness"], [scheme], [program], ...). *)
val witness_json : cell -> Mapping.Witness.t -> Json.t
