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

(** The batch refinement engine.  [check_cells ?pool cells] plans the
    whole sweep before running it: transforms are applied up front, the
    enumeration work is grouped by distinct program AST (each becomes
    one pool chunk-scheduled task enumerated under every model any cell
    needs, sharing the pruned survivor pass — see
    [Litmus.Enumerate.behaviours_many]), and reports are assembled in
    cell order.  Verdicts are identical — contents and order — to
    running each cell through {!refines} on its own; the planner only
    removes duplicated enumeration work a per-cell sweep repeats. *)
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

(** Memoized {!refines} for generated corpora: the verdict is keyed by
    (scheme, model names, [Litmus.Generate.canonical_string src]), so
    canonically-equal programs — same shape up to thread order and
    location/register naming — share one checked verdict.  The served
    report's [name] is ["scheme: pname"]; counts and extra behaviours
    come from the first-checked member of the class (identical up to
    the renaming bijection).  Domain-safe. *)
val check_memo :
  scheme:string ->
  f:(Litmus.Ast.prog -> Litmus.Ast.prog) ->
  src_model:Axiom.Model.t ->
  tgt_model:Axiom.Model.t ->
  string * Litmus.Ast.prog ->
  report

(** [(hits, misses)] of the verdict memo since start/last clear. *)
val memo_stats : unit -> int * int

(** Empty the verdict memo and zero its counters. *)
val clear_memo : unit -> unit

val all_ok : report list -> bool
val pp_report : Format.formatter -> report -> unit
