(** The Interface Definition Language describing shared-library function
    signatures to the runtime (paper §6.2).

    Signatures are written like C prototypes, one per line:

    {v
    # math
    f64 sin(f64);
    f64 atan2(f64 y, f64 x);
    i64 sha256(ptr buf, i64 len);
    void free(ptr);
    v}

    Argument names are optional; [#] starts a comment. *)

type ctype = I64 | F64 | Ptr | Void

type signature = { name : string; ret : ctype; args : ctype list }

exception Parse_error of { line : int; msg : string }

val parse : string -> signature list

(** Parse a single prototype (no trailing [;] required). *)
val parse_signature : string -> signature

val pp_ctype : Format.formatter -> ctype -> unit
val pp_signature : Format.formatter -> signature -> unit

(** Render back to IDL syntax. *)
val to_string : signature list -> string
