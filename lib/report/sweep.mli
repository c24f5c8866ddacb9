(** The refinement sweep behind the witness report: every (scheme,
    corpus program) refinement verdict, optionally decorated with
    captured witnesses, shrunk counterexamples and axiom-coverage
    accounting.

    One runner, {!run_generated}, serves the catalog report, generated
    corpora, the chaos bench and the tests.  Verdicts always come from
    the unmodified {!Mapping.Check.refines} path; witness capture, the
    coverage probe and the journal are additive and run only when asked
    for. *)

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
    Arm-Cats models.  The refinement bench sweeps exactly these. *)
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

(** {1 Generated corpora} *)

(** The schemes a generated sweep checks by default: the paper's
    verified x86→TCG frontend mapping and the corrected RMW lowering
    under both the original and fixed ARM models — sound schemes, so a
    clean generated sweep exits 0.  The two ARM cells map a program to
    the same target, but each still enumerates it: the sweep checks
    cells one by one through {!Mapping.Check.refines}, and the
    behaviours cache is keyed by model name. *)
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
      (** (scheme, program, failure) of cells that timed out or were
          quarantined this run — not journaled, retried on resume *)
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
    1).  A shard's missing cells
    run as one {!Parallel.Supervise.map} batch under [policy] (on
    [pool] when given), each cell through {!Mapping.Check.refines}:
    timeouts and exceptions surface in [failures] as typed
    {!Parallel.Supervise.failure}s instead of escaping, and the sweep
    goes on.

    - [capture] (default false): failing cells carry witnesses
      ({!Mapping.Witness.capture}, at most [max_witnesses] each) and a
      shrunk counterexample.
    - [coverage]: every source-program candidate rejected by the
      source model is accounted via {!Coverage.add}, exactly once per
      cell; [probe_targets] (default false) also classifies the
      target side's rejected candidates under the target model.
    - [journal]: after each shard, its computed cells append a
      CRC-guarded verdict record (verdict + coverage deltas) to the
      {!Parallel.Frontier} journal at that path, and cells journaled
      by an earlier interrupted run are replayed instead of recomputed
      — verdict rebuilt, coverage deltas merged, witnesses re-derived
      — so a resumed result (and an HTML report rendered from it) is
      byte-identical to an uninterrupted run's.  Failed cells are left
      out of the journal and retried by the next resume.  The journal
      is checkpoint-compacted to canonical order on completion and
      closed on every exit.  Without [journal], verdicts stay in
      memory and [recovery] is empty.
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
    ([schema_version], [section = "witness"], [scheme], [program], ...)
    shared with the BENCH_*.json files. *)
val witness_json : cell -> Mapping.Witness.t -> Json.t
