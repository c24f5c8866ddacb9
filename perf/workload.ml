(* The contract between a workload and the harness (bench.ml). *)

(* One timed rep.  [verify] runs after the clock stops and returns how
   many of the rep's [ops] failed their output check. *)
type rep = { ops : int; verify : unit -> int }

(* The traced rep's result.  [self_s] splits [table_s] into layer self
   times; whatever they leave over is shown as unattributed.
   [traced_s] is the end-to-end time of the traced rep, compared with
   the untraced median to give the tracing overhead. *)
type traced = {
  metrics : (string * float) list;
  self_s : (string * float) list;
  table_s : float;
  traced_s : float;
  failed : int;  (** replay-parity or output-check failures *)
}

type instance = {
  rep : unit -> rep;  (** fresh engines / cleared caches every time *)
  gates : unit -> int * int;
      (** run-once correctness gates, (checks attempted, checks failed);
          they also serve as the untimed warm-up rep *)
  traced : Spans.t -> traced;
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  setup : seed:int -> scale:float -> out:string -> instance;
      (** builds the seeded inputs (timed as [setup_s]); [out] is the
          directory for files the workload writes *)
}
