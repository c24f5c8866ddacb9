(** An operational x86-TSO machine: the classic store-buffer semantics
    (Owens et al., "A Better x86 Memory Model: x86-TSO" — the paper's
    [65]), as an independent validation of the axiomatic model.

    Each thread owns a FIFO store buffer; at any point a thread may
    either execute its next instruction or drain its oldest buffered
    store to shared memory:

    - loads read the newest buffered store to the location, else memory;
    - stores append to the buffer;
    - [MFENCE] and atomic RMWs require an empty buffer (they drain it),
      and RMWs read and write memory directly — LOCK-prefixed
      instructions drain the buffer whether or not the compare succeeds.

    {!behaviours} enumerates all reachable final states by exhaustive
    interleaving with memoization.  On programs whose every RMW
    succeeds or whose shapes do not exercise the store buffer through a
    failed RMW, it agrees exactly with the axiomatic
    {!Axiom.X86_tso.model} (property-tested); on a failed RMW the
    operational machine is strictly stronger, because the paper's
    axiomatic model (§5.2) only gives fence power to {e successful}
    RMWs — see the "failed RMW divergence" test for the witness. *)

(** All final behaviours of an x86-flavoured litmus program.  The
    program must only use plain accesses, [MFENCE] and [Rmw_x86] RMWs
    (CAS, fetch-and-add, exchange). *)
val behaviours : Ast.prog -> Enumerate.behaviour list

(** Number of distinct states explored (for tests/curiosity). *)
val explored_states : Ast.prog -> int
