(** x86-64 general-purpose registers. *)

type t =
  | RAX
  | RBX
  | RCX
  | RDX
  | RSI
  | RDI
  | RBP
  | RSP
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

val all : t list

(** Encoding index, 0–15. *)
val index : t -> int

(** Inverse of {!index}; [Invalid_argument] outside 0–15. *)
val of_index : int -> t
val name : t -> string
val pp : Format.formatter -> t -> unit
