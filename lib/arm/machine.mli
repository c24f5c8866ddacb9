(** The Arm host machine: executes translated code blocks, charging
    model cycles per instruction ({!Cost}), tracking per-thread
    statistics, the exclusive monitor for LDXR/STXR, and cache-line
    ownership for the CAS contention model (§7.4). *)

(** Why a block's execution faulted rather than exiting normally.
    [Trap_insn] is a deliberately planted {!Insn.Trap} (undecodable
    guest code, unresolvable link stub); the others are runtime
    faults the machine itself detects.  The machine never raises for
    guest-caused problems — it returns [Trapped] so the engine can
    fault one thread without tearing down the run. *)
type trap =
  | Trap_insn of { kind : string; context : string }
  | Unknown_helper of string
  | Unknown_host of string
  | Runaway  (** block executed too many host instructions *)
  | Fell_through of int  (** control ran past the end of the block *)

type exit_state = Next_tb of int64 | Jump of int64 | Halted | Trapped of trap

type shared
(** State shared by all guest threads: memory, cost model, helper
    registry. *)

type thread = {
  tid : int;
  regs : int64 array;  (** 32 registers; reads of 31 (XZR) return 0 *)
  mutable cmp : int64 * int64;  (** lazy NZCV: last comparison *)
  mutable exclusive : int64 option;  (** exclusive monitor address *)
  mutable cycles : int;
  mutable insns : int;
  mutable fences : int;
  mutable helper_calls : int;
  mutable host_calls : int;
  mutable last_dmb : bool;
  mutable halted : bool;
  mutable exit_code : int64;
  output : Buffer.t;
}

(** A helper receives the shared state, the calling thread and its
    arguments; it may charge extra cycles via {!charge}. *)
type helper = shared -> thread -> int64 list -> int64

val create_shared : ?cost:Cost.t -> Memsys.Mem.t -> shared
val mem : shared -> Memsys.Mem.t
val cost : shared -> Cost.t

(** Register (or replace) the helper behind a name.  [exec_block]
    resolves a call's name once and memoizes it; registering any name
    drops the memo, so a replacement takes effect on the next call.
    A name with no helper traps ([Unknown_helper] / [Unknown_host])
    only when a call to it executes. *)
val register_helper : shared -> string -> helper -> unit

(** Look up a registered helper (used by the engine's interpreter
    fallback to dispatch helper calls outside [exec_block]). *)
val find_helper : shared -> string -> helper option
val create_thread : int -> thread

(** Charge extra cycles to a thread (used by helpers). *)
val charge : thread -> int -> unit

(** Perform the cache-line ownership step of an atomic: acquires the
    line for the thread and charges the transfer cost if it was owned
    elsewhere. *)
val atomic_line : shared -> thread -> int64 -> unit

(** Execute a code block until it reaches an exit instruction.  A
    block that executes [10_000_000 - 1] instructions without exiting
    traps [Runaway]; running past the last instruction traps
    [Fell_through] with that index. *)
val exec_block : shared -> thread -> Insn.t array -> exit_state
