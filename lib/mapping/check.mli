(** Executable Theorem 1 (paper §5.4): a transformation from source
    program [Ps] in model [Ms] to target [Pt] in [Mt] is correct if every
    consistent target behaviour is a consistent source behaviour.

    This module checks behaviour inclusion by exhaustive enumeration —
    the executable counterpart of the paper's Agda proofs, applied to the
    litmus corpus. *)

type report = {
  name : string;
  ok : bool;
  src_behaviours : int;
  tgt_behaviours : int;
  extra : Litmus.Enumerate.behaviour list;
      (** target behaviours with no source counterpart (the bug
          witnesses when [not ok]) *)
}

val refines :
  src_model:Axiom.Model.t ->
  tgt_model:Axiom.Model.t ->
  src:Litmus.Ast.prog ->
  tgt:Litmus.Ast.prog ->
  report

(** One sweep cell for the batch planner: check that [cell_f cell_src]
    under [cell_tgt_model] refines [cell_src] under [cell_src_model].
    [cell_scheme] and [cell_program] name the report
    ("scheme: program"). *)
type cell = {
  cell_scheme : string;
  cell_program : string;
  cell_f : Litmus.Ast.prog -> Litmus.Ast.prog;
  cell_src_model : Axiom.Model.t;
  cell_tgt_model : Axiom.Model.t;
  cell_src : Litmus.Ast.prog;
}

(** A planned enumeration job: one distinct source and its images
    ({!Litmus.Enumerate.pass}), the source itself first, each distinct
    program once with every model some cell needs it under
    (deduplicated by name, in first-need order), and whether any of
    those needs is coverage-probed. *)
type job = {
  job_src : Litmus.Ast.prog;
  job_images : Litmus.Enumerate.image list;
  job_probed : bool;
}

(** A program some cell checks, the model it is checked under, and
    whether that check is coverage-probed. *)
type need = Litmus.Ast.prog * Axiom.Model.t * bool

(** The batch planner: [plan cells] groups the (source, target) needs of
    every cell by source AST into one {!job} per distinct source,
    numbered in first-need order, and returns the jobs with each cell's
    job number and its target's image number in that job (its source
    is image 0), in cell order.  A target equal to another image of its
    source — one lowering checked under two models — is one image, and
    a caller assembles each cell from its job's results by number. *)
val plan : (need * need) list -> job array * (int * int) list

(** [assemble ~scheme ~program ~src ~tgt] is the report of a cell
    named ["scheme: program"] from its source behaviours (under the
    source model) and its target behaviours (under the target model):
    what {!refines} reports, under the cell's name. *)
val assemble :
  scheme:string ->
  program:string ->
  src:Litmus.Enumerate.behaviour list ->
  tgt:Litmus.Enumerate.behaviour list ->
  report

(** The batch refinement engine.  [check_cells ?pool cells] plans the
    whole sweep before running it: transforms are applied up front, the
    enumeration work is grouped by {!plan} (each job becomes one pool
    chunk-scheduled task, one {!Litmus.Enumerate.pass} over its source
    and images), and reports are {!assemble}d in cell order.  Transforms and
    assembly run on [pool] too, one task per cell; an exception from
    either surfaces as the lowest-index cell's.  Verdicts are identical
    — contents and order — to running each cell through {!refines} on
    its own; the planner only removes enumeration work a per-cell sweep
    repeats. *)
val check_cells : ?pool:Parallel.Pool.t -> cell list -> report list

(** [check_scheme ~name f ~src_model ~tgt_model corpus] maps every
    corpus program through [f] and checks refinement, as one
    {!check_cells} batch (on [pool] when given).  The report list is
    identical — contents and order — to checking each program through
    {!refines} on its own. *)
val check_scheme :
  ?pool:Parallel.Pool.t ->
  name:string ->
  (Litmus.Ast.prog -> Litmus.Ast.prog) ->
  src_model:Axiom.Model.t ->
  tgt_model:Axiom.Model.t ->
  (string * Litmus.Ast.prog) list ->
  report list

val all_ok : report list -> bool
val pp_report : Format.formatter -> report -> unit
