(** Optimizer pipeline over translation blocks.

    The passes rewrite one working array in place ({!Work}).
    {!run_in_place} runs them on the caller's: the engine passes the
    frontend's buffer, so a translation copies its ops once, after the
    passes.  {!run_pass} and {!run} copy their argument into a working
    array first and never write to it. *)

type pass = Const_fold | Dce | Mem_elim | Fence_merge

val pass_name : pass -> string
val all : pass list

(** Qemu's baseline optimizations (no fence merging). *)
val qemu_default : pass list

(** Risotto: Qemu's passes plus fence merging. *)
val risotto_default : pass list

(** One pass on its own: a rewritten copy of the ops. *)
val run_pass : ?ledger:Fence_ledger.t -> pass -> Op.t array -> Op.t array

(** Run the passes in order on [w], rewriting it in place.

    With [observe] (the default), each pass executes under an
    [opt]-category {!Obs.Trace} span and, when metrics are enabled, its
    wall time is recorded into the [opt.<pass>.ns] histogram and the
    block's fence outcomes into the [fence.<kind>.<outcome>] counters
    ({!Fence_ledger.publish}) — all invisible to the transformation
    itself.  [~observe:false] runs invisibly to every sink: how a
    translation is re-derived after the fact.

    Fence provenance, when [ledger] is given or the counters are
    wanted: the block's initial barriers are recorded as [Emitted], the
    merges as {!Fenceopt} reports them, and the final survivors as
    [Kept].  Any other pass that changes the number of barriers has the
    missing ones recorded as [Dropped].  Without a ledger and with
    metrics off, no provenance is computed at all. *)
val run_in_place :
  ?ledger:Fence_ledger.t -> ?observe:bool -> pass list -> Work.t -> unit

(** {!run_in_place} on a copy of the block's ops: the block with the
    optimized ops. *)
val run :
  ?ledger:Fence_ledger.t -> ?observe:bool -> pass list -> Block.t -> Block.t
