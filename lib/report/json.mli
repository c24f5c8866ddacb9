(** Minimal JSON: a deterministic emitter for the witness / report
    artifacts and a recursive-descent parser for reading the sweep
    journal's verdict records back.  The repo carries no
    JSON dependency, so this is hand-rolled; it covers the full JSON
    grammar except surrogate-pair [\u] escapes (BMP only). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (no whitespace), key order preserved — byte-identical output
    for equal values, which the report's determinism test relies on.
    Non-finite floats emit as [null]. *)
val to_string : t -> string

val of_string : string -> (t, string) result

(** Object field lookup; [None] on non-objects and missing keys. *)
val member : string -> t -> t option
