(** Executions: event graphs ⟨E, po, rf, co⟩ plus RMW pairing and
    syntactic dependency relations (paper §5.1).

    Initialisation writes are explicit events with [Event.init_tid]; they
    are not [po]-related to anything and are [co]-minimal per location. *)

open Relalg

type t = {
  events : Event.t list;
  po : Rel.t;  (** program order, strict, per thread *)
  rf : Rel.t;  (** reads-from: write → read, same loc / value *)
  co : Rel.t;  (** coherence: strict total order per location on writes *)
  rmw_plain : Rel.t;  (** x86 LOCK / TCG RMW read→write pairs *)
  amo : Rel.t;  (** Arm single-instruction RMW pairs (e.g. [casal]) *)
  lxsx : Rel.t;  (** Arm load-exclusive / store-exclusive pairs *)
  data : Rel.t;  (** data dependencies read → write *)
  ctrl : Rel.t;  (** control dependencies read → later events *)
  addr : Rel.t;  (** address dependencies read → memory access *)
}

val empty : t
val find : t -> int -> Event.t

(** {1 Index}

    The accessors below read an index of an execution's events (its
    kind, location and thread masks), held in a per-domain cache of one
    entry keyed on [events] by physical equality: executions sharing an
    [events] list share one index, built on first use. *)

type index

(** [index x]: the index of [x]'s events, built unless it is the cached
    one, and now the cached one. *)
val index : t -> index

(** [reuse i] makes [i] the cached index again, so that executions
    sharing the [events] it was built from find it without a rebuild:
    the enumerator keeps each skeleton's index and reuses it before
    checking that skeleton's candidates. *)
val reuse : index -> unit

(** {1 Event sets} *)

val reads : t -> Iset.t
val writes : t -> Iset.t
val mems : t -> Iset.t
val fences : t -> Event.fence -> Iset.t

(** Arm acquire reads ([LDAR]/[LDAXR]). *)
val acq_reads : t -> Iset.t

(** Arm acquirePC reads ([LDAPR]). *)
val acq_pc_reads : t -> Iset.t

(** Arm release writes ([STLR]/[STLXR]). *)
val rel_writes : t -> Iset.t

(** TCG SC reads / writes (from RMW operations). *)
val sc_reads : t -> Iset.t

val sc_writes : t -> Iset.t

(** All RMW pairs: [rmw_plain ∪ amo ∪ lxsx]. *)
val rmw : t -> Rel.t

(** {1 Derived relations} *)

val po_loc : t -> Rel.t
val fr : t -> Rel.t
val rfe : t -> Rel.t
val rfi : t -> Rel.t
val coe : t -> Rel.t
val fre : t -> Rel.t

(** {1 Well-formedness}

    Checks: rf sources are writes with matching location and value and
    every read has exactly one source; co is a strict total order per
    location with init writes first; rmw pairs are immediate-po related
    same-location read/write pairs. *)
val well_formed : t -> (unit, string) result

(** {1 Behaviour}

    Final value of each location: the value of its co-maximal write
    (paper's [Behav]).  Sorted by location name. *)
val behaviour : t -> (string * int) list

val pp : Format.formatter -> t -> unit
