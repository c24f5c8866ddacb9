(** The DBT frontend: decodes guest x86 instructions at a pc and emits a
    TCG translation block, applying the configured memory-model mapping
    scheme (Figure 2 or Figure 7a) to every shared-memory access.

    When the host linker is active and the pc is a resolved PLT entry,
    the frontend instead emits the marshaled native call sequence of
    Figure 11 (steps 4–5).

    Undecodable guest bytes never raise: a block whose first
    instruction fails to decode becomes a trap block ([Op.Trap
    "decode"]) that faults only the thread executing it, and a failure
    mid-block ends the block at the last good boundary.  The PLT slot
    of an import the IDL promised but the host lacks becomes a lazy
    [Op.Trap "link"] stub. *)

type t = {
  config : Config.t;
  image : Image.Gelf.t;
  links : Linker.Link.t;
  inject : Inject.t;
}

val create : ?inject:Inject.t -> Config.t -> Image.Gelf.t -> Linker.Link.t -> t
(** [?inject] shares an injection state with the enclosing engine; by
    default a fresh one is built from [config.inject]. *)

(** Maximum guest instructions per translation block. *)
val max_block_insns : int

(** A block translated into the calling domain's op buffer: [work]
    is that buffer, ready for {!Tcg.Pipeline.run_in_place}, and valid
    only until the domain's next translation.  A PLT stub or a trap
    block covers no guest code ([guest_len = guest_insns = 0]). *)
type draft = { guest_pc : int64; guest_len : int; guest_insns : int; work : Tcg.Work.t }

val translate_in_place : t -> int64 -> draft

(** The draft's current ops as a block, copied once and exactly sized. *)
val block : draft -> Tcg.Block.t

(** [block (translate_in_place t pc)]: the raw (unoptimized) block at
    [pc], in an array of its own. *)
val translate : t -> int64 -> Tcg.Block.t
