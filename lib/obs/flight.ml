type kind =
  | Block_enter
  | Tier_degraded
  | Trap
  | Watchdog
  | Fence_pass

let kind_code = function
  | Block_enter -> 0
  | Tier_degraded -> 1
  | Trap -> 2
  | Watchdog -> 3
  | Fence_pass -> 4

let kind_of_code = function
  | 0 -> Block_enter
  | 1 -> Tier_degraded
  | 2 -> Trap
  | 3 -> Watchdog
  | _ -> Fence_pass

let kind_name = function
  | Block_enter -> "block-enter"
  | Tier_degraded -> "tier-degraded"
  | Trap -> "trap"
  | Watchdog -> "watchdog"
  | Fence_pass -> "fence-pass"

type event = { seq : int; kind : kind; pc : int64; arg : int }

(* Fixed-size single-writer ring: three parallel unboxed arrays indexed
   by [seq land mask].  The writer is the owning guest thread (or the
   engine, for the engine-wide ring); readers only run at postmortem
   time after the writer has stopped, so no synchronisation beyond the
   global on/off flag is needed on the record path. *)
type t = {
  mask : int;
  kinds : int array;  (* kind_code *)
  pcs : int64 array;
  args : int array;
  mutable seq : int;  (* total events ever recorded *)
}

let default_capacity = 256

(* Always-on by default: the recorder is the black box the postmortem
   reads, so it must be running before anything goes wrong.  The flag
   exists for the differential parity test and overhead measurement. *)
let on = Atomic.make true

let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let create ?(capacity = default_capacity) () =
  let cap =
    let rec up n = if n >= capacity then n else up (n * 2) in
    up 16
  in
  {
    mask = cap - 1;
    kinds = Array.make cap 0;
    pcs = Array.make cap 0L;
    args = Array.make cap 0;
    seq = 0;
  }

let capacity t = t.mask + 1
let recorded t = t.seq

let record t kind pc arg =
  if Atomic.get on then begin
    let i = t.seq land t.mask in
    t.kinds.(i) <- kind_code kind;
    t.pcs.(i) <- pc;
    t.args.(i) <- arg;
    t.seq <- t.seq + 1
  end

let reset t = t.seq <- 0

let last ?n t =
  let cap = t.mask + 1 in
  let avail = min t.seq cap in
  let n = match n with Some n -> min n avail | None -> avail in
  let rec go i acc =
    if i >= n then acc
    else
      let seq = t.seq - 1 - i in
      let j = seq land t.mask in
      go (i + 1)
        ({ seq; kind = kind_of_code t.kinds.(j); pc = t.pcs.(j); arg = t.args.(j) }
        :: acc)
  in
  go 0 []

let events t = last t
