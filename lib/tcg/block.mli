(** Translation blocks: the unit of translation and caching.

    A block's ops are one dense array, the form every consumer walks:
    the optimizer passes, the backend and the TCG interpreter.
    Blocks are built with {!make}, which also resolves each label to
    the index of its [Set_label] once, so no consumer searches for a
    branch target at run time.  A block is immutable by convention:
    nothing writes to [ops] after {!make}. *)

type t = private {
  guest_pc : int64;  (** guest address of the first instruction *)
  guest_len : int;  (** bytes of guest code covered *)
  guest_insns : int;  (** number of guest instructions *)
  ops : Op.t array;
  labels : int array;
      (** [labels.(l)] is the index in [ops] of [Set_label l] (the last
          one, if [l] is defined twice), or [-1]; labels past the end
          are undefined too *)
}

(** [make ~guest_pc ~guest_len ~guest_insns ops] takes ownership of
    [ops]. *)
val make : guest_pc:int64 -> guest_len:int -> guest_insns:int -> Op.t array -> t

(** The same guest range with other ops (e.g. optimized ones). *)
val with_ops : t -> Op.t array -> t

val op_count : t -> int
val pp : Format.formatter -> t -> unit
