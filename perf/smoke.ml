(* Smoke test of the benchmark: every workload at a tiny scale, one rep
   plus the traced rep.  Checks that the correctness gates pass, that the
   result lines carry exactly the metric names and units BENCHMARK.json
   lists, that its run_seconds is the executable's default, and that the
   trace file is valid JSON.

   Usage: smoke.exe BENCHMARK.json *)

open Perfbench
module J = Report.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("smoke: " ^ msg))
    fmt

let read_json path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string s with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let field name j =
  match J.member name j with Some v -> v | None -> failwith ("missing field " ^ name)

let str = function J.String s -> s | _ -> failwith "expected a string"
let list = function J.List l -> l | _ -> failwith "expected a list"
let sorted l = List.sort compare l

(* (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared bench key =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field key bench))

let check_line ~what line expected =
  match J.of_string line with
  | Error e -> fail "%s: result line is not JSON (%s)" what e
  | Ok j -> (
      (match j with
      | J.Obj kvs ->
          let keys = [ "correct"; "attempted"; "failed"; "metrics" ] in
          if sorted (List.map fst kvs) <> sorted keys then
            fail "%s: result line keys are not correct/attempted/failed/metrics" what
      | _ -> fail "%s: result line is not an object" what);
      if J.member "correct" j <> Some (J.Bool true) then fail "%s: correct is not true" what;
      match J.member "metrics" j with
      | Some (J.Obj ms) ->
          let printed = List.map (fun (name, m) -> (name, str (field "unit" m))) ms in
          if sorted printed <> sorted expected then
            fail "%s: printed metrics differ from BENCHMARK.json" what
      | _ -> fail "%s: no metrics object" what)

let () =
  let bench = read_json Sys.argv.(1) in
  let names = List.map (fun (w : Workload.t) -> w.name) Bench.workloads in
  let declared_names =
    List.map (fun w -> str (field "name" w)) (list (field "workloads" bench))
  in
  if sorted declared_names <> sorted names then
    fail "BENCHMARK.json workloads differ from the executable's";
  (match field "run_seconds" bench with
  | J.Int s when float_of_int s = Bench.default_seconds -> ()
  | _ -> fail "BENCHMARK.json run_seconds differs from the executable's --seconds default");
  let e2e = declared bench "end_to_end" and layers = declared bench "per_layer" in
  List.iter
    (fun workload ->
      let o =
        {
          Bench.workload;
          seed = 7;
          seconds = 0.;
          trace = true;
          scale = 0.01;
          min_reps = 1;
          out = "smoke_out";
        }
      in
      let r = Bench.run o in
      if r.Bench.failed > 0 then fail "%s: %d failed ops" workload r.Bench.failed;
      check_line ~what:(workload ^ " untraced")
        (Bench.result_line { o with trace = false } r)
        e2e;
      check_line ~what:(workload ^ " traced") (Bench.result_line o r) layers;
      match r.Bench.trace_file with
      | None -> fail "%s: no trace file" workload
      | Some file -> (
          match list (field "traceEvents" (read_json file)) with
          | [] -> fail "%s: empty trace" workload
          | _ -> ()
          | exception Failure e -> fail "%s: bad trace file (%s)" workload e))
    names;
  if !failures > 0 then exit 1;
  print_endline "smoke: ok"
