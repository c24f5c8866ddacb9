(* risotto_perf.exe --workload W --seed S [--seconds N] [--trace 0|1]

   Runs one benchmark workload in this process and prints, as the last
   line of standard output, {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer
   metrics of an extra traced rep (its Chrome trace goes to --out).
   The line before it holds each end-to-end metric's reported value with
   its within-run median, quartiles and sample count.  Exits 1 when any
   output check failed. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref Bench.default_seconds in
  let trace = ref 0 in
  let out = ref "perf/out" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME "
        ^ String.concat " | " (List.map (fun (w : Workload.t) -> w.name) Bench.workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S time to spend in timed reps (default %g)" Bench.default_seconds );
      ("--trace", Arg.Set_int trace, "0|1 add a traced rep and report per-layer metrics");
      ( "--out",
        Arg.Set_string out,
        "DIR directory for the journal and trace (default perf/out)" );
    ]
  in
  let usage = "risotto_perf.exe --workload NAME --seed N [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.exists (fun (w : Workload.t) -> w.name = !workload) Bench.workloads) then begin
    Arg.usage spec usage;
    exit 2
  end;
  let o =
    {
      Bench.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      scale = 1.;
      min_reps = 3;
      out = !out;
    }
  in
  let r = Bench.run o in
  List.iter
    (fun (name, (s : Bench.summary)) ->
      Format.eprintf "%-20s %.6g  (median %.6g  q1 %.6g  q3 %.6g  n=%d)@." name s.value
        s.median s.q1 s.q3 s.n)
    r.e2e;
  if o.trace then Format.eprintf "%a" Bench.pp_table r;
  print_endline (Bench.detail_line o r);
  print_endline (Bench.result_line o r);
  if r.failed > 0 then exit 1
