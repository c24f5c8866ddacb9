(** Finite binary relations over integer-identified elements.

    This module implements the relational vocabulary of herd-style "cat"
    memory models: composition, union, identity restriction, transitive
    closure, acyclicity, and enumeration of linear extensions (used to
    enumerate coherence orders).  All relations are strict.

    {b Representation.}  A relation is an array of bit rows over event
    ids: row [x] is the {!Iset} mask of the successors of [x], so
    composition ORs the rows of [s] that each row of [r] selects,
    {!inverse} is a transpose, and closure and acyclicity run
    bit-parallel Warshall in O(n²) word operations.  The array is
    trimmed to its last non-empty row, so equal relations are
    structurally equal and hash alike.

    {b Bound.}  Ids lie in 0–62, as for {!Iset}; every function taking
    an id raises [Invalid_argument] naming an id outside that range.

    {b Order.}  {!fold}, {!to_list} and {!pp} visit pairs in ascending
    lexicographic order; {!find_cycle} and {!linear_extensions} explore
    ids in ascending order, so their results are deterministic. *)

type t

val empty : t
val is_empty : t -> bool
val mem : int -> int -> t -> bool
val add : int -> int -> t -> t
val of_list : (int * int) list -> t
val to_list : t -> (int * int) list

(** [init n f] is the relation whose row [x] is [f x]: the pairs
    [(x, y)] with [x < n] and [y ∈ f x]. *)
val init : int -> (int -> Iset.t) -> t

val union : t -> t -> t
val union_all : t list -> t
val inter : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool

(** [compose r s] is the sequential composition [r; s]:
    [(x, z)] such that [(x, y) ∈ r] and [(y, z) ∈ s] for some [y]. *)
val compose : t -> t -> t

(** [sequence [r1; ...; rn]] is [r1; r2; ...; rn].  [sequence []] is
    undefined and raises [Invalid_argument]. *)
val sequence : t list -> t

val inverse : t -> t

(** [map f r] is [{(f x, f y) | (x, y) ∈ r}]. *)
val map : (int -> int) -> t -> t

(** [id s] is the identity relation [{(x, x) | x ∈ s}], written [[A]] in
    cat notation. *)
val id : Iset.t -> t

(** [cross a b] is the full product [a × b]. *)
val cross : Iset.t -> Iset.t -> t

(** [restrict a r b] is [[A]; r; [B]]. *)
val restrict : Iset.t -> t -> Iset.t -> t

val domain : t -> Iset.t
val codomain : t -> Iset.t

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** [succs r x] is the set of [y] with [(x, y) ∈ r]. *)
val succs : t -> int -> Iset.t

(** [preds r y] is the set of [x] with [(x, y) ∈ r]. *)
val preds : t -> int -> Iset.t

(** Strict transitive closure [r⁺]. *)
val transitive_closure : t -> t

val irreflexive : t -> bool

(** [acyclic r] holds iff [r⁺] is irreflexive. *)
val acyclic : t -> bool

(** [is_strict_total_order_on s r] checks [r] is transitive, irreflexive
    and total on [s]. *)
val is_strict_total_order_on : Iset.t -> t -> bool

(** [linear_extensions s r] enumerates every strict total order on [s]
    that contains [r] (restricted to [s]).  Returns [[]] when [r] is
    cyclic on [s].  Exponential: intended for litmus-sized sets. *)
val linear_extensions : Iset.t -> t -> t list

(** [immediate r] keeps only pairs with no intermediate element:
    [(x, y) ∈ r] such that there is no [z] with [(x, z) ∈ r] and
    [(z, y) ∈ r]. *)
val immediate : t -> t

(** Remove reflexive pairs. *)
val minus_id : t -> t

(** [find_cycle r] returns the nodes of some cycle of [r] (in edge
    order, so consecutive elements — and last→first — are [r]-related),
    or [None] if [r] is acyclic. *)
val find_cycle : t -> int list option

val pp : Format.formatter -> t -> unit
