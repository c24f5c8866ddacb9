(** Per-block fence provenance ledger.

    Records what happened to every barrier a block ever contained:
    emitted by the frontend's mapping rules, kept through the pipeline,
    merged into a neighbouring fence (possibly strengthening it, since
    merging joins in the fence lattice), or dropped outright.  The
    ledger answers "which guest instruction produced this fence, and
    which pass eliminated it?"; {!publish} turns its entries into the
    process-global [fence.<kind>.<outcome>] counters of {!Obs.Metrics},
    from which per-run aggregates (e.g. the merged ratio) fall out. *)

type outcome =
  | Emitted  (** introduced by the frontend (pass = ["frontend"]) *)
  | Kept  (** survived the whole pipeline (pass = ["pipeline"]) *)
  | Merged of { into : Op.origin; result : Axiom.Event.fence }
      (** absorbed into the surviving fence at [into]; the merge's
          lattice-join result is [result] *)
  | Dropped  (** eliminated *)
  | Strengthened of { from : Axiom.Event.fence }
      (** a survivor whose kind was strengthened by a merge; [kind] in
          the entry is the final (stronger) kind, [from] the original *)

type entry = {
  pass : string;  (** which pass recorded this *)
  kind : Axiom.Event.fence;
  origin : Op.origin;
  outcome : outcome;
}

type t

val create : unit -> t

(** Entries in recording order. *)
val entries : t -> entry list

val outcome_name : outcome -> string

(** [record t ~pass ~kind ~origin outcome] appends an entry. *)
val record :
  t -> pass:string -> kind:Axiom.Event.fence -> origin:Op.origin -> outcome ->
  unit

(** [append ~into t] appends [t]'s entries to [into], in order. *)
val append : into:t -> t -> unit

(** Add one to the [fence.<kind>.<outcome>] counter of every entry.
    Each counter is registered at its first use and its id kept, so
    only that first use takes the registry's lock. *)
val publish : t -> unit

(** Number of entries whose outcome name matches. *)
val count : t -> string -> int

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
