(* Clock and order statistics shared by every workload. *)

(* Monotonic nanoseconds; the stub is [@@noalloc] and unboxed, so
   reading the clock inside a traced loop allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words allocated on the minor heaps of every domain.  [Gc.quick_stat]
   sums the per-domain counters, which [Gc.minor_words] does not. *)
let all_minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Words reachable right now, in MB.  [Gc.stat] finishes a major
   cycle first, so the count is exact and independent of GC pacing. *)
let live_heap_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Median and quartiles exactly as Python's [statistics.median] and
   [statistics.quantiles(n=4)] (method "exclusive") give them, so the
   run output and perf/compare.py agree on every number. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  match n with
  | 0 -> (nan, nan)
  | 1 -> (a.(0), a.(0))
  | _ ->
      let q i =
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 3)

let ratio num den = if den = 0. then 0. else num /. den
