(** The working copy the optimizer passes rewrite in place, and the
    scratch tables they index by temp or op position.

    Every pass rewrites one [t] in place: a pass only replaces and
    deletes ops, so [len] never grows.  The engine's [t] is the
    frontend's op buffer; {!Pipeline.run} makes one with {!of_array}.
    Tables come from a per-domain pool, reused across blocks and grown
    on demand, so a steady-state pass allocates no table at all. *)

type t = {
  mutable ops : Op.t array;  (** [ops.(0 .. len - 1)] are the block *)
  mutable len : int;
  ntemps : int;
      (** at least {!Op.temp_bound} of the ops: the size of a table
          indexed by temp *)
}

(** A working copy of [ops]; the argument is never written. *)
val of_array : Op.t array -> t

(** The current ops, as a fresh array. *)
val contents : t -> Op.t array

(** [compact w dead] drops every op [i] with [dead.(i) <> 0], keeping
    the order of the rest. *)
val compact : t -> int array -> unit

(** A per-domain scratch table. *)
type 'a table

val table : unit -> 'a table

(** [get tbl n fill] is the calling domain's array for [tbl], at least
    [n] long, with [0 .. n - 1] set to [fill]. *)
val get : 'a table -> int -> 'a -> 'a array

(** [reserve tbl n init] is the calling domain's array for [tbl], at
    least [n] long, holding whatever it held last ([init] in slots never
    written). *)
val reserve : 'a table -> int -> 'a -> 'a array
