(** The refinement sweep behind the witness report: every (scheme,
    corpus program) refinement verdict, optionally decorated with
    captured witnesses, shrunk counterexamples and axiom-coverage
    accounting.

    Verdicts always come from the unmodified {!Mapping.Check.refines}
    path; witness capture and the coverage probe are additive passes
    that run only when asked for, so a plain [run] is observationally
    the bench sweep. *)

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

(** [run ~capture ~coverage entries]: check every (scheme, program)
    cell.  With [capture] (default false), failing cells carry witnesses
    ({!Mapping.Witness.capture}, at most [max_witnesses] each) and a
    shrunk counterexample.  With [coverage], every source-program
    candidate rejected by the source model is accounted via
    {!Coverage.record}. *)
val run :
  ?capture:bool ->
  ?coverage:Coverage.t ->
  ?max_witnesses:int ->
  entry list ->
  cell list

val all_ok : cell list -> bool
val failing : cell list -> cell list

(** {1 Journaled (resumable) sweeps} *)

(** Journal key of a (scheme, program) cell: the two joined by a unit
    separator (0x1F), which neither side contains. *)
val cell_key : string -> string -> string

type journaled = {
  cells : cell list;  (** canonical (entries × corpus) order *)
  failures : (string * string * Parallel.Supervise.failure) list;
      (** (scheme, program, failure) of cells that timed out or were
          quarantined this run — not journaled, retried on resume *)
  replayed : int;  (** cells restored from the journal *)
  computed : int;  (** cells computed (and journaled) this run *)
  recovery : Parallel.Frontier.recovery;
      (** what opening the journal recovered (torn-tail statistics) *)
}

(** [run_journaled ~journal entries] is {!run} with crash-safety: every
    completed cell appends a CRC-guarded verdict record (verdict +
    coverage deltas) to the {!Parallel.Frontier} journal at [journal],
    and cells already journaled by an earlier interrupted run are
    replayed instead of recomputed — verdict rebuilt, coverage deltas
    merged via {!Coverage.add}, witnesses re-derived deterministically —
    so the resumed result (and an HTML report rendered from it) is
    byte-identical to an uninterrupted run's.  Each computed cell runs
    under [policy] ({!Parallel.Supervise}): timeouts and quarantined
    cells surface in [failures], are left out of the journal, and are
    retried by the next resume.  [journal_chaos] is the
    [journal-write] chaos site hook ({!Parallel.Frontier.open_}); a
    firing hook tears the append and raises
    {!Parallel.Frontier.Injected_fault}, simulating a crash.  The
    journal is checkpoint-compacted to canonical order on successful
    completion. *)
val run_journaled :
  ?capture:bool ->
  ?coverage:Coverage.t ->
  ?max_witnesses:int ->
  ?policy:Parallel.Supervise.policy ->
  ?journal_chaos:(unit -> bool) ->
  journal:string ->
  entry list ->
  journaled

(** {1 Generated corpora}

    The journaled sweep scaled to 10⁴+ QCheck-generated programs
    ({!Litmus.Generate}), deduped into shape classes and processed in
    fixed-size shards: within a shard, missing cells run as one
    supervised pool batch, and the shard's verdicts are journaled
    afterwards in deterministic order — the shard is the unit of
    crash-resumability, the cell stays the unit of verdict identity. *)

(** The schemes a generated sweep checks by default: the paper's
    verified x86→TCG frontend mapping and the corrected RMW lowering
    under both the original and fixed ARM models — sound schemes, so a
    clean generated sweep exits 0, and the two ARM cells share one
    enumeration per target program under the batch planner. *)
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

(** [run_generated ~journal entries] — see the section comment.  With
    [?pool], each shard's missing cells are one pool batch (supervised
    via {!Parallel.Supervise.map}); verdicts are identical to the
    sequential path.  [probe_targets] additionally classifies the
    {e target}-side rejected candidates under the target model in the
    coverage accounting (that is where the ARM/TCG axioms get
    exercised).  Resumes from [journal] exactly like
    {!run_journaled}. *)
val run_generated :
  ?capture:bool ->
  ?coverage:Coverage.t ->
  ?max_witnesses:int ->
  ?policy:Parallel.Supervise.policy ->
  ?pool:Parallel.Pool.t ->
  ?shard_size:int ->
  ?probe_targets:bool ->
  journal:string ->
  entry list ->
  generated

val json_of_behaviour : Litmus.Enumerate.behaviour -> Json.t
val json_of_execution : Axiom.Execution.t -> Json.t

(** Self-describing witness artifact with the common envelope
    ([schema_version], [section = "witness"], [scheme], [program], ...)
    shared with the BENCH_*.json files. *)
val witness_json : cell -> Mapping.Witness.t -> Json.t
