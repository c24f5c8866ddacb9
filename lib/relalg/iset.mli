(** Finite sets of event ids.

    A set is one immediate [int] mask: bit [x] is set iff [x] is an
    element.  Elements must lie in 0–62 (the 63 bits of an OCaml
    [int]); every function that takes an element raises
    [Invalid_argument] naming an id outside that range, so an id can
    never wrap into another.  No operation allocates except {!to_list}
    and {!pp}.  {!fold}, {!to_list} and {!pp} visit elements in
    ascending order. *)

type t = private int

(** The set whose elements are the set bits of a mask (the inverse of
    the coercion [(s :> int)]). *)
val of_mask : int -> t

val empty : t
val is_empty : t -> bool
val mem : int -> t -> bool
val add : int -> t -> t
val singleton : int -> t
val cardinal : t -> int
val union : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val of_list : int list -> t
val to_list : t -> int list
val filter : (int -> bool) -> t -> t
val for_all : (int -> bool) -> t -> bool
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit
