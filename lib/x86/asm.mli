(** Two-pass assembler for the x86 subset with symbolic labels.

    Produces the encoded byte image and the symbol table.  A listing of
    the image is [X86.Decode] over [code] (see [gelf_tool dis]). *)

type item =
  | Label of string
  | Ins of Insn.t
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cc * string
  | Call_lbl of string
  | Mov_lbl of Reg.t * string  (** [mov r, $label-address] *)

exception Undefined_label of string
exception Duplicate_label of string

type assembled = {
  org : int64;  (** address of the first byte *)
  code : string;  (** encoded text section *)
  symbols : (string * int64) list;  (** label → address *)
}

val assemble : ?org:int64 -> item list -> assembled

(** Address of a label. *)
val symbol : assembled -> string -> int64
