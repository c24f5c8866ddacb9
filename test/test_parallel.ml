(* The Domain pool and the parallel refinement sweeps: deterministic
   ordering, per-task fault capture, nesting safety, and bit-for-bit
   agreement of the parallel paths with the sequential ones across the
   full litmus catalog. *)

module P = Parallel.Pool

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)

let test_map_ordering () =
  P.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys = P.map_exn pool (fun x -> (x * 2) + 1) xs in
      Alcotest.(check (list int)) "results in input order"
        (List.map (fun x -> (x * 2) + 1) xs)
        ys)

(* Every draining domain reaches the pool's metric handles at once on a
   process's first batch.  A [lazy] handle raised
   [CamlinternalLazy.Undefined] in the domain that lost the race (and a
   worker dying holding a chunk hung [map]); [Obs.Metrics.once] must
   serve every domain the one registered metric.  The slow
   registration makes the four first calls overlap. *)
let test_once_concurrent () =
  let calls = Atomic.make 0 and ready = Atomic.make 0 in
  let handle =
    Obs.Metrics.once (fun () ->
        Atomic.incr calls;
        Unix.sleepf 0.01;
        Obs.Metrics.counter "test.pool.once")
  in
  let first_use () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    handle ()
  in
  let others = List.init 3 (fun _ -> Domain.spawn first_use) in
  let mine = first_use () in
  check_bool "every domain gets the same metric" true
    (List.for_all (fun d -> Domain.join d = mine) others);
  check_bool "registered at least once" true (Atomic.get calls >= 1);
  check_bool "and is remembered" true (handle () = mine && Atomic.get calls <= 4)

let test_fault_capture () =
  P.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 20 Fun.id in
      let rs =
        P.map pool (fun x -> if x mod 7 = 3 then failwith "diverged" else x) xs
      in
      check_int "all tasks reported" 20 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok y ->
              check_bool "non-faulting index" false (i mod 7 = 3);
              check_int "value" i y
          | Error (f : P.fault) ->
              check_bool "faulting index" true (i mod 7 = 3);
              check_int "fault carries its index" i f.P.index;
              check_bool "original exception kept" true
                (match f.P.exn with
                | Failure msg -> msg = "diverged"
                | _ -> false))
        rs)

let test_map_exn_reraises () =
  P.with_pool ~jobs:2 (fun pool ->
      match P.map_exn pool (fun x -> if x = 5 then failwith "boom" else x)
              (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg -> check_bool "message" true (msg = "boom"))

let test_nested_map () =
  (* A task body that itself maps over the same pool must not deadlock:
     it degrades to the sequential path. *)
  P.with_pool ~jobs:3 (fun pool ->
      let ys =
        P.map_exn pool
          (fun x -> List.fold_left ( + ) 0 (P.map_exn pool Fun.id [ x; x; x ]))
          (List.init 12 Fun.id)
      in
      Alcotest.(check (list int)) "nested results"
        (List.map (fun x -> 3 * x) (List.init 12 Fun.id))
        ys)

let test_sequential_pool () =
  P.with_pool ~jobs:1 (fun pool ->
      check_int "jobs clamped to >= 1" 1 (P.jobs pool);
      let ys = P.map_exn pool (fun x -> x + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "sequential pool works" [ 2; 3; 4 ] ys)

let test_pool_reuse () =
  P.with_pool ~jobs:4 (fun pool ->
      for i = 1 to 50 do
        let ys = P.map_exn pool (fun x -> x * i) [ 1; 2; 3; 4; 5 ] in
        Alcotest.(check (list int)) "batch" [ i; 2 * i; 3 * i; 4 * i; 5 * i ] ys
      done)

(* ------------------------------------------------------------------ *)
(* Parity: the parallel sweeps agree with the sequential ones           *)

let x86 = Axiom.X86_tso.model
let tcg = Axiom.Tcg_model.model
let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected
let corpus = Litmus.Catalog.mapping_corpus

let report_eq (a : Mapping.Check.report) (b : Mapping.Check.report) =
  a.Mapping.Check.name = b.Mapping.Check.name
  && a.Mapping.Check.ok = b.Mapping.Check.ok
  && a.Mapping.Check.src_behaviours = b.Mapping.Check.src_behaviours
  && a.Mapping.Check.tgt_behaviours = b.Mapping.Check.tgt_behaviours
  && a.Mapping.Check.extra = b.Mapping.Check.extra

let schemes_under_test =
  let open Mapping.Schemes in
  let rfe, rbe = risotto_rmw2_preset in
  [
    ("risotto x86->tcg", x86_to_tcg Risotto_frontend, tcg);
    ("qemu x86->tcg", x86_to_tcg Qemu_frontend, tcg);
    ("risotto-rmw2 x86->arm", x86_to_arm rfe rbe, arm_fix);
  ]

let test_check_scheme_parity () =
  (* The whole catalog, several schemes: parallel check_scheme must be
     report-for-report identical (contents and order) to checking each
     program through [refines] on its own. *)
  P.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (name, f, tgt_model) ->
          let seq =
            List.map
              (fun (tname, src) ->
                {
                  (Mapping.Check.refines ~src_model:x86 ~tgt_model ~src
                     ~tgt:(f src))
                  with
                  Mapping.Check.name = Printf.sprintf "%s: %s" name tname;
                })
              corpus
          in
          let par =
            Mapping.Check.check_scheme ~pool ~name f ~src_model:x86 ~tgt_model
              corpus
          in
          check_int (name ^ ": same number of reports") (List.length seq)
            (List.length par);
          List.iter2
            (fun a b ->
              check_bool
                (name ^ ": report for " ^ a.Mapping.Check.name ^ " identical")
                true (report_eq a b))
            seq par)
        schemes_under_test)

let test_check_parity_litmus () =
  (* Enumerate.check over the corpus through the pool vs directly. *)
  P.with_pool ~jobs:4 (fun pool ->
      let tests =
        List.map
          (fun (_, prog) ->
            { Litmus.Ast.prog; expect = Litmus.Ast.Allowed Litmus.Ast.True })
          corpus
      in
      let seq = List.map (Litmus.Enumerate.check x86) tests in
      let par = P.map_exn pool (Litmus.Enumerate.check x86) tests in
      List.iter2
        (fun (a : Litmus.Enumerate.verdict) (b : Litmus.Enumerate.verdict) ->
          check_bool "verdict ok equal" a.ok b.ok;
          check_int "consistent count equal" a.total_consistent
            b.total_consistent;
          check_bool "witnesses equal" true (a.witnesses = b.witnesses))
        seq par)

let test_fault_mid_sweep () =
  (* One program whose transformation diverges must yield a typed
     failure for exactly that corpus entry, leaving every other verdict
     intact. *)
  let poisoned_name, poisoned = List.nth corpus 2 in
  let f p =
    if p == poisoned then failwith "scheme diverged"
    else Mapping.Schemes.(x86_to_tcg Risotto_frontend) p
  in
  let entry =
    {
      Report.Sweep.scheme = "poisoned";
      f;
      src_model = x86;
      tgt_model = tcg;
      corpus;
    }
  in
  P.with_pool ~jobs:4 (fun pool ->
      let r =
        (Report.Sweep.run_generated ~pool ~shard_size:(List.length corpus)
           [ entry ])
          .Report.Sweep.gen_journaled
      in
      (match r.Report.Sweep.failures with
      | [ (scheme, program, Parallel.Supervise.Quarantined { last; _ }) ] ->
          check_bool "failure at the poisoned cell" true
            (scheme = "poisoned" && program = poisoned_name);
          check_bool "original exception preserved" true
            (match last.P.exn with
            | Failure msg -> msg = "scheme diverged"
            | _ -> false)
      | _ -> Alcotest.fail "expected exactly one quarantined cell");
      check_int "every other cell present" (List.length corpus - 1)
        (List.length r.Report.Sweep.cells);
      List.iter
        (fun (c : Report.Sweep.cell) ->
          check_bool ("verdict present for " ^ c.Report.Sweep.program) true
            (c.Report.Sweep.program <> poisoned_name
            && c.Report.Sweep.report.Mapping.Check.src_behaviours > 0))
        r.Report.Sweep.cells)

let test_pruned_matches_unpruned () =
  (* The pruned consistent-execution path keeps exactly the candidates
     the model's full predicate keeps. *)
  List.iter
    (fun (name, prog) ->
      let unpruned m =
        List.length
          (List.filter m.Axiom.Model.consistent
             (List.map fst (Litmus.Enumerate.candidates prog)))
      in
      List.iter
        (fun m ->
          check_int
            (Printf.sprintf "%s under %s" name m.Axiom.Model.name)
            (unpruned m)
            (List.length (Litmus.Enumerate.executions m prog)))
        [ x86; tcg ])
    corpus

(* Nothing is cached between calls: each call is one pass, and
   [behaviours_many] serves a repeated model name once. *)
let test_one_pass_per_call () =
  let module En = Litmus.Enumerate in
  let _, p = List.hd corpus in
  let passes () = snd (En.cache_stats ()) in
  let m0 = passes () in
  let first = En.behaviours x86 p in
  let m1 = passes () in
  let second = En.behaviours x86 p in
  let m2 = passes () in
  check_int "first call: one pass" (m0 + 1) m1;
  check_int "second call: one pass" (m1 + 1) m2;
  check_bool "equal behaviours" true (first = second);
  let many = En.behaviours_many [ x86; tcg; x86 ] p in
  check_int "behaviours_many: one pass" (m2 + 1) (passes ());
  check_bool "behaviours_many == behaviours per distinct model" true
    (many = [ (x86.Axiom.Model.name, En.behaviours x86 p); (tcg.name, En.behaviours tcg p) ])

(* ------------------------------------------------------------------ *)
(* QCheck: pool map == List.map for arbitrary inputs and job counts     *)

let qcheck_map_parity =
  QCheck.Test.make ~count:50 ~name:"pool map == List.map"
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (jobs, xs) ->
      let f x = (x * 31) + (x mod 5) in
      P.with_pool ~jobs (fun pool -> P.map_exn pool f xs) = List.map f xs)

(* A jobs=1 pool runs every task on the caller: the sequential
   reference for where faults land. *)
let qcheck_map_fault_parity =
  QCheck.Test.make ~count:50 ~name:"map fault indices == sequential"
    QCheck.(pair (int_range 1 6) (small_list (int_range 0 20)))
    (fun (jobs, xs) ->
      let f x = if x mod 4 = 1 then failwith "odd one out" else x * 2 in
      let classify r =
        match r with Ok y -> `Ok y | Error (f : P.fault) -> `Fault f.P.index
      in
      let run jobs =
        P.with_pool ~jobs (fun pool -> List.map classify (P.map pool f xs))
      in
      run 1 = run jobs)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps input order" `Quick test_map_ordering;
          Alcotest.test_case "faults are per-task" `Quick test_fault_capture;
          Alcotest.test_case "metric handles: concurrent first use" `Quick
            test_once_concurrent;
          Alcotest.test_case "map_exn reraises" `Quick test_map_exn_reraises;
          Alcotest.test_case "nested map degrades" `Quick test_nested_map;
          Alcotest.test_case "jobs=1 sequential" `Quick test_sequential_pool;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
        ] );
      ( "parity",
        [
          Alcotest.test_case "check_scheme parallel == sequential" `Quick
            test_check_scheme_parity;
          Alcotest.test_case "Enumerate.check through the pool" `Quick
            test_check_parity_litmus;
          Alcotest.test_case "fault mid-sweep is isolated" `Quick
            test_fault_mid_sweep;
          Alcotest.test_case "pruned == unpruned consistent counts" `Quick
            test_pruned_matches_unpruned;
          Alcotest.test_case "behaviours: one pass per call" `Quick
            test_one_pass_per_call;
        ] );
      ( "qcheck",
        List.map
          (QCheck_alcotest.to_alcotest ~verbose:false)
          [ qcheck_map_parity; qcheck_map_fault_parity ] );
    ]
