(* Per-block tier-ladder bookkeeping.

   A block climbs interp (tier 0) -> baseline native (tier 1) ->
   superblock (tier 2).  This module owns the profile every Tbchain
   node carries: where the block sits on the ladder and a two-slot
   inline counter of observed static-exit successors that drives both
   tier-2 trace formation and the Obs hot-block "heat" ranking.
   Everything here is plain mutable state touched only by the execution
   thread, which also runs every compile. *)

type state =
  | Cold  (* tier 0: interpreting, accumulating profile *)
  | Published  (* tier 1+: native TB installed *)
  | Degraded  (* backend refused the block; interpreter permanently *)

type profile = {
  mutable state : state;
  (* Observed successors of the block's *static* exits (Goto_tb seams).
     A block has at most two static exit targets, so two inline slots
     cover the common case exactly; computed jumps, halts and anything
     past the slots land in [other] and dilute dominance, which is the
     right bias: Tcg.Block.concat can only stitch static seams, so a
     trace must never follow a computed successor. *)
  mutable a_pc : int64;
  mutable a_n : int;
  mutable b_pc : int64;
  mutable b_n : int;
  mutable other : int;
  (* Tier-2 demotion bookkeeping: expected exit pc of the installed
     superblock ([-1L] = unknown), entries and early (side) exits since
     install, and how many times this block has been deoptimized. *)
  mutable super_exit : int64;
  mutable super_entries : int;
  mutable super_side_exits : int;
  mutable deopt_count : int;
}

let fresh () =
  {
    state = Cold;
    a_pc = -1L;
    a_n = 0;
    b_pc = -1L;
    b_n = 0;
    other = 0;
    super_exit = -1L;
    super_entries = 0;
    super_side_exits = 0;
    deopt_count = 0;
  }

let reset p =
  p.state <- Cold;
  p.a_pc <- -1L;
  p.a_n <- 0;
  p.b_pc <- -1L;
  p.b_n <- 0;
  p.other <- 0;
  p.super_exit <- -1L;
  p.super_entries <- 0;
  p.super_side_exits <- 0;
  p.deopt_count <- 0

let reset_succs p =
  p.a_pc <- -1L;
  p.a_n <- 0;
  p.b_pc <- -1L;
  p.b_n <- 0;
  p.other <- 0

let record_succ p pc =
  if p.a_n = 0 || Int64.equal p.a_pc pc then begin
    p.a_pc <- pc;
    p.a_n <- p.a_n + 1
  end
  else if p.b_n = 0 || Int64.equal p.b_pc pc then begin
    p.b_pc <- pc;
    p.b_n <- p.b_n + 1
  end
  else p.other <- p.other + 1

let record_other p = p.other <- p.other + 1
let samples p = p.a_n + p.b_n + p.other

(* Dominance: at least [min_samples] observed exits and the leading
   static successor took >= 60% of them.  min_samples = 2 makes a
   tight loop dominant at its [trace_threshold]'th execution (the first
   threshold-1 executions each record one exit), so profile-guided
   formation fires at exactly the execution index the old static
   hottest-edge heuristic did. *)
let min_samples = 2

let dominant p =
  let total = samples p in
  if total < min_samples then None
  else
    let pc, n = if p.a_n >= p.b_n then (p.a_pc, p.a_n) else (p.b_pc, p.b_n) in
    if n > 0 && n * 5 >= total * 3 then Some (pc, n) else None

(* Observed-path heat: executions plus the leading successor count, so
   blocks that are both hot and predictable outrank merely hot ones.
   This is the tier-2 candidate ordering, exported through
   [Obs.Profile]. *)
let heat ~execs p = execs + max p.a_n p.b_n

(* Demotion: a superblock that side-exits more than half the time over
   a meaningful sample stopped paying for its stitched tail. *)
let min_super_entries = 16
let max_deopts = 2

let record_super_entry p = p.super_entries <- p.super_entries + 1

let record_super_exit p pc =
  if p.super_exit <> -1L && not (Int64.equal pc p.super_exit) then
    p.super_side_exits <- p.super_side_exits + 1

let should_deopt p =
  p.super_entries >= min_super_entries
  && p.super_side_exits * 2 > p.super_entries

let note_super_installed p ~expected_exit =
  p.super_exit <- expected_exit;
  p.super_entries <- 0;
  p.super_side_exits <- 0

(* After demotion the successor profile retrains from scratch: the old
   counts are what built the trace that just regressed. *)
let note_deopt p =
  p.deopt_count <- p.deopt_count + 1;
  p.super_exit <- -1L;
  p.super_entries <- 0;
  p.super_side_exits <- 0;
  reset_succs p

let retry_allowed p = p.deopt_count < max_deopts
