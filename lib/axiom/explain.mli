(** Diagnostics: why is an execution inconsistent?

    Walks a model's axioms ({!Model.t.axioms}) in order and reports
    violated axioms with witness cycles — the herd-style answer to "why
    is this outcome forbidden?".  {!check} stops at the first violated
    axiom; {!check_all} reports every violated axiom, which is what the
    witness reports (lib/report) render. *)

type verdict =
  | Consistent
  | Violates of { axiom : string; cycle : int list }
      (** [axiom] is the violated axiom's name.  [cycle] is a list of
          event ids in edge order, closed last→first: consecutive events
          — and the last event back to the first — are related by the
          axiom's witness relation ({!Model.axiom.witness}).  For an
          emptiness axiom (atomicity) the "cycle" is the offending pair
          [[r; w]]; for atomicity, the closing w→r edge reverses the
          [fre; coe] detour that breaks the RMW pair. *)

(** [Violates] for the first violated axiom of the model, in its
    order; [Consistent] iff [m.consistent x]. *)
val check : Model.t -> Execution.t -> verdict

(** Every violated axiom of the model, in the same order as {!check},
    each with its witness cycle.  [check_all m x = []] iff
    [check m x = Consistent], and when [check] reports a violation it is
    the head of [check_all]'s result. *)
val check_all : Model.t -> Execution.t -> verdict list

(** The most specific base relation connecting [a] to [b] in [x]:
    [rmw], [rf], [co], [fr] or [po] (derived ordering relations are
    po-compositions), with ["fr;co"] for the closing edge of an
    atomicity witness (the pair [b→a] is in [fre; coe]) and ["?"] when
    nothing matches. *)
val edge_rel : Execution.t -> int -> int -> string

(** Prints the cycle events interleaved with the {!edge_rel} relation
    names connecting them, including the closing last→first edge. *)
val pp_verdict : Execution.t -> Format.formatter -> verdict -> unit
