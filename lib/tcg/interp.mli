(** Direct interpreter for TCG blocks.

    Used for differential testing (the optimizer must preserve the
    block's observable semantics, and the Arm backend must agree with
    this interpreter) and as the engine's degraded execution mode when
    the backend cannot compile a block. *)

type exit_state =
  | Next_tb of int64  (** continue at a static guest pc *)
  | Jump of int64  (** computed jump target *)
  | Halted
  | Trapped of string * string
      (** the block faulted: fault-kind tag (see [Core.Fault.of_tag])
          and context.  Produced by [Op.Trap], fall-through blocks,
          runaway internal loops, and missing helpers. *)

exception No_helper of string
(** Raised by a helper dispatcher that has no binding for a name; the
    interpreter converts it into a [Trapped] exit. *)

type env = {
  temps : int64 array;
  mem : Memsys.Mem.t;
  helpers : string -> int64 list -> int64;
      (** helper and host-call dispatcher; may raise {!No_helper} *)
}

val create_env :
  ?helpers:(string -> int64 list -> int64) -> Memsys.Mem.t -> env

(** Execute a block to its exit, walking its op array; branches jump
    through the label indices {!Block.make} resolved.  An [env] may be
    reused from block to block: only the temps a block writes change.
    Never raises for malformed blocks: fall-throughs, undefined labels
    and runaway loops surface as [Trapped]. *)
val exec_block : env -> Block.t -> exit_state
