(** Shared word-addressable memory for the guest/host machines.

    Addresses are byte addresses over the full unsigned 64-bit range;
    a word access uses the 8-byte aligned word containing the address
    (the subset ISAs only generate aligned accesses).  Words live
    unboxed in 4 KiB pages allocated on first store; unwritten memory
    reads as zero.  Also tracks per-cache-line (64-byte) ownership,
    used by the CAS contention cost model (paper §7.4): an atomic by a
    thread that does not own the line pays a transfer penalty.

    A memory belongs to one domain at a time: even a load updates its
    cache of recently used pages. *)

type t

val create : unit -> t
val load : t -> int64 -> int64
val store : t -> int64 -> int64 -> unit

(** [load_at m base off] is [load m (Int64.add base off)], and
    [store_at m base off v] is [store m (Int64.add base off) v]; the
    sum wraps.  They form the address inside this module, so a caller
    that passes existing boxes allocates nothing for it: the build
    never inlines across modules, and a sum formed by the caller is
    boxed to make the call. *)
val load_at : t -> int64 -> int64 -> int64

val store_at : t -> int64 -> int64 -> int64 -> unit

(** Byte access (used by the image loader for .data-like content). *)
val load_byte : t -> int64 -> int

val store_byte : t -> int64 -> int -> unit

(** [owner m addr] is the id of the thread owning [addr]'s cache line,
    or [None] if untouched. *)
val owner : t -> int64 -> int option

(** [acquire_line m addr ~tid] makes [tid] the owner; returns [true]
    when this required a transfer (previous owner was another thread). *)
val acquire_line : t -> int64 -> tid:int -> bool

(** Number of distinct threads that have performed atomic accesses to
    [addr]'s cache line — drives the contention cost model. *)
val sharers : t -> int64 -> int

val clear : t -> unit

(** Snapshot of every word ever stored to (by {!store} or
    {!store_byte}, zero values included) as (addr, value) pairs,
    sorted by signed address — for tests and oracles. *)
val dump : t -> (int64 * int64) list
