(** The five models under their command-line names ([sc], [x86], [arm]
    (corrected Arm-Cats), [arm-orig], [tcg]), in the order the tools
    list them. *)

val by_name : (string * Model.t) list
