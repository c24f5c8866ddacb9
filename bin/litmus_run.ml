(* litmus_run: check .litmus test files against their expectations under
   a memory model — the CI entry point for the litmus corpus.

     dune exec bin/litmus_run.exe -- litmus/MP.litmus -m x86
     dune exec bin/litmus_run.exe -- litmus/*.litmus -m arm -j 4 *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The per-file work, run as a pool task: everything except printing, so
   output stays in command-line order whatever the parallel schedule. *)
type outcome =
  | Read_error of string
  | Parse_error of { line : int; msg : string }
  | Check_error of string  (** e.g. a program too large for the enumerator *)
  | Checked of Litmus.Ast.test * Litmus.Enumerate.verdict

(* [check_one] runs as a pool task under [-j N], so the handles are
   [once], not [lazy]: a lazy value forced from two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let m_files = Obs.Metrics.once (fun () -> Obs.Metrics.counter "litmus.files")
let m_ok = Obs.Metrics.once (fun () -> Obs.Metrics.counter "litmus.ok")
let m_check_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "litmus.check.ns")

let check_one model path =
  Obs.Trace.with_span ~cat:"litmus"
    ~args:(fun () -> [ ("file", path) ])
    "check"
  @@ fun () ->
  Obs.Metrics.incr (m_files ());
  match Litmus.Parser.parse (read_file path) with
  | exception Sys_error msg -> Read_error msg
  | exception Litmus.Parser.Error { line; msg } -> Parse_error { line; msg }
  | test -> (
      match
        Obs.Profile.time (m_check_ns ()) (fun () ->
            Litmus.Enumerate.check model test)
      with
      | exception Invalid_argument msg -> Check_error msg
      | v ->
          if v.Litmus.Enumerate.ok then Obs.Metrics.incr (m_ok ());
          Checked (test, v))

let report_one model verbose path outcome =
  match outcome with
  | Read_error msg ->
      Format.printf "%-28s READ ERROR: %s@." path msg;
      false
  | Parse_error { line; msg } ->
      Format.printf "%-28s PARSE ERROR at line %d: %s@." path line msg;
      false
  | Check_error msg ->
      Format.printf "%-28s CHECK ERROR: %s@." path msg;
      false
  | Checked (test, v) ->
      Format.printf "%-28s %-6s (%s: %a, %d behaviours)@." path
        (if v.Litmus.Enumerate.ok then "OK" else "FAIL")
        model.Axiom.Model.name Litmus.Ast.pp_expectation test.Litmus.Ast.expect
        v.Litmus.Enumerate.total_consistent;
      if verbose && not v.Litmus.Enumerate.ok then
        List.iter
          (fun b ->
            Format.printf "    witness: %a@." Litmus.Enumerate.pp_behaviour b)
          v.Litmus.Enumerate.witnesses;
      v.Litmus.Enumerate.ok

let scheme_names () =
  String.concat ", "
    (List.map
       (fun (e : Report.Sweep.entry) -> e.Report.Sweep.scheme)
       (Report.Sweep.default_entries ()))

(* [f pool], on a pool of [jobs] domains when that is more than one. *)
let with_jobs jobs f =
  match jobs with
  | Some j when j > 1 -> Parallel.Pool.with_pool ~jobs:j (fun pool -> f (Some pool))
  | _ -> f None

(* Print a sweep's supervision failures, one per cell; exit 3 when there
   is one (the table is incomplete: resume to converge), else 1 when
   some refinement check fails, else 0. *)
let exit_code (j : Report.Sweep.journaled) =
  List.iter
    (fun (scheme, program, f) ->
      Format.printf "%-32s %a@."
        (Printf.sprintf "%s: %s" scheme program)
        Parallel.Supervise.pp_failure f)
    j.Report.Sweep.failures;
  if j.Report.Sweep.failures <> [] then 3
  else if Report.Sweep.all_ok j.Report.Sweep.cells then 0
  else 1

(* --report DIR: run the refinement sweep over [entries] with witness
   capture and the axiom-coverage probe, supervised per job, and write
   DIR/report.html plus one JSON artifact per witness.  With [journal]
   every completed shard lands in that journal and an interrupted run
   resumes from it.  The catalog sweep and --generate differ only in
   their entries, their shard size, the target-side coverage probe and
   whether a journal is implied.  Exit 3 when a cell timed out or was
   quarantined (the table is incomplete: resume to converge), else 1
   when some refinement check fails — known-bad schemes in the default
   sweep make that the expected outcome — else 0. *)
let run_report ~dir ~entries ~shard_size ~probe_targets ~journal ~jobs
    ~metrics ~task_timeout ~task_retries ~inject =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let coverage = Report.Coverage.create () in
  let policy =
    {
      Parallel.Supervise.default with
      deadline_s = task_timeout;
      retries = task_retries;
      chaos =
        Option.map
          (fun i -> Core.Inject.fire_hook i Core.Inject.Pool_task)
          inject;
    }
  in
  let journal_chaos =
    Option.map
      (fun i -> Core.Inject.fire_hook i Core.Inject.Journal_write)
      inject
  in
  let g =
    with_jobs jobs (fun pool ->
        Report.Sweep.run_generated ~capture:true ~coverage ?pool ~policy
          ~shard_size ~probe_targets ?journal_chaos ?journal entries)
  in
  let j = g.Report.Sweep.gen_journaled in
  let recovery = j.Report.Sweep.recovery in
  Option.iter
    (fun path ->
      if recovery.Parallel.Frontier.valid > 0 then
        Format.printf "journal %s: %d verdict(s) replayed, %d computed%s@."
          path j.Report.Sweep.replayed j.Report.Sweep.computed
          (if recovery.Parallel.Frontier.dropped_bytes > 0 then
             Printf.sprintf " (%d torn byte(s) dropped)"
               recovery.Parallel.Frontier.dropped_bytes
           else ""))
    journal;
  Format.printf "coverage: %d shard(s) of <=%d cell(s); %s@."
    (List.length g.Report.Sweep.gen_shards)
    shard_size
    (match g.Report.Sweep.gen_saturated_after with
    | Some s ->
        Printf.sprintf "discriminating-axiom coverage saturated after shard %d"
          s
    | None -> "still discovering new axiom pairs in the final shard");
  let models =
    List.sort_uniq
      (fun (a : Axiom.Model.t) b ->
        compare a.Axiom.Model.name b.Axiom.Model.name)
      (List.concat_map
         (fun (e : Report.Sweep.entry) ->
           if probe_targets then
             [ e.Report.Sweep.src_model; e.Report.Sweep.tgt_model ]
           else [ e.Report.Sweep.src_model ])
         entries)
  in
  let metrics_snap = if metrics then Some (Obs.Metrics.snapshot ()) else None in
  let cells = j.Report.Sweep.cells in
  let html, witnesses =
    Report.Html.write ~dir ?metrics:metrics_snap ~coverage ~models cells
  in
  List.iter
    (fun (c : Report.Sweep.cell) ->
      Format.printf "%-32s VIOLATION (%d extra, %d witness(es))@."
        c.Report.Sweep.report.Mapping.Check.name
        (List.length c.Report.Sweep.report.Mapping.Check.extra)
        (List.length c.Report.Sweep.witnesses))
    (Report.Sweep.failing cells);
  Format.printf "wrote %s and %d witness artifact(s) to %s@." html
    (List.length witnesses) dir;
  exit_code j

(* --generate N without --report: the smoke mode — generate, dedup,
   sweep every (scheme, class) cell through the one runner as a single
   shard, with no capture, coverage or journal, and print a summary.
   Exit codes as --report's. *)
let run_generate_smoke ~entries ~jobs =
  let g =
    with_jobs jobs (fun pool ->
        Report.Sweep.run_generated ?pool ~shard_size:max_int entries)
  in
  let j = g.Report.Sweep.gen_journaled in
  let cells = j.Report.Sweep.cells and failures = j.Report.Sweep.failures in
  let bad = Report.Sweep.failing cells in
  let _, passes = Litmus.Enumerate.cache_stats () in
  Format.printf "%d/%d generated cell(s) hold (%d enumeration(s))@."
    (List.length cells - List.length bad)
    (List.length cells + List.length failures)
    passes;
  List.iter
    (fun (c : Report.Sweep.cell) ->
      let r = c.Report.Sweep.report in
      Format.printf "%-32s VIOLATION (%d extra)@." r.Mapping.Check.name
        (List.length r.Mapping.Check.extra))
    bad;
  exit_code j

let main files model_name verbose jobs metrics =
  if metrics then Obs.Metrics.enable ();
  match List.assoc_opt model_name Axiom.Models.by_name with
  | None ->
      Format.eprintf "unknown model %S (one of: %s)@." model_name
        (String.concat ", " (List.map fst Axiom.Models.by_name));
      1
  | Some model ->
      let outcomes =
        match jobs with
        | Some j when j > 1 ->
            Parallel.Pool.with_pool ~jobs:j (fun pool ->
                Parallel.Pool.map_list ~pool (check_one model) files)
        | _ -> List.map (check_one model) files
      in
      let ok = List.map2 (report_one model verbose) files outcomes in
      let failures = List.length (List.filter not ok) in
      Format.printf "%d/%d tests hold@."
        (List.length ok - failures)
        (List.length ok);
      if metrics then Obs.Metrics.dump ();
      if failures = 0 then 0 else 1

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Litmus files.")

let model_arg =
  Arg.(
    value & opt string "x86"
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Memory model: sc, x86, arm, arm-orig or tcg.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print witnesses on failure.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Check files on $(docv) parallel domains (default: sequential; 0 \
           means one per recommended core).  With $(b,--report), each \
           shard's cells run on the pool.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the metrics registry and print the merged snapshot \
           (files checked, verdicts, per-check latency histogram) after \
           the run.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"DIR"
        ~doc:
          "Instead of checking litmus files, run the Theorem-1 refinement \
           sweep with witness capture and axiom-coverage accounting and \
           write $(docv)/report.html (self-contained: inline SVG witness \
           graphs, coverage matrix) plus one JSON artifact per witness. \
           Exits 1 if any refinement check fails, 3 if a cell timed out or \
           was quarantined.")

let scheme_arg =
  Arg.(
    value & opt_all string []
    & info [ "scheme" ] ~docv:"NAME"
        ~doc:
          "With $(b,--report): restrict the sweep to this scheme \
           (repeatable; default all).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "With $(b,--report): journal every completed (scheme, program) \
           verdict to $(docv) as it lands, so a killed sweep can resume \
           from exactly the completed work.  Implied (at \
           $(b,DIR/journal)) by $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "With $(b,--report): replay verdicts already journaled by an \
           earlier (interrupted) run instead of recomputing them, then \
           compute only the remainder.  The resumed report is \
           byte-identical to an uninterrupted run's.  Uses \
           $(b,DIR/journal) unless $(b,--journal) names another file.")

let task_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--report): cooperative deadline per job (one \
           distinct program enumerated under every model the sweep needs \
           it under).  Each cell of a job that exceeds it is reported as \
           timed out (typed, terminal — the checks are deterministic) and \
           the sweep goes on; exit code 3 flags the incomplete table.")

let task_retries_arg =
  Arg.(
    value & opt int 0
    & info [ "task-retries" ] ~docv:"N"
        ~doc:
          "With $(b,--report): retry a failed job up to $(docv) more \
           times (exponential backoff) before quarantining it; each of \
           its cells is then reported as a typed failure.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "With $(b,--report): deterministic fault plan for the chaos \
           sites, e.g. $(b,nth:journal-write:2,seeded:pool-task:7:200).  \
           $(b,pool-task) rules fail task attempts (retried under the \
           supervision policy); $(b,journal-write) rules tear the journal \
           append mid-record, simulating a crash.")

let generate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "generate" ] ~docv:"N"
        ~doc:
          "Instead of checking litmus files, generate $(docv) seeded \
           programs ($(b,--seed)), dedup them into shape classes and \
           sweep the generated schemes over the class representatives.  \
           With $(b,--report DIR) the sweep is journaled (resumable) and \
           rendered like the default sweep; without it, a smoke check \
           that prints the verdict summary.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "With $(b,--generate): generator seed — the corpus (and every \
           verdict) is a pure function of ($(docv), N).")

let shard_arg =
  Arg.(
    value & opt int 256
    & info [ "shard-size" ] ~docv:"CELLS"
        ~doc:
          "With $(b,--generate --report): journal granularity — each \
           shard of $(docv) cells runs the jobs it needs that no earlier \
           shard completed as one supervised pool batch, and is \
           journaled on completion.")

let main files model_name verbose jobs metrics report schemes journal resume
    task_timeout task_retries inject_plan generate seed shard =
  let jobs =
    match jobs with
    | Some 0 -> Some (Domain.recommended_domain_count ())
    | j -> j
  in
  let inject_result =
    match inject_plan with
    | None -> Ok None
    | Some s ->
        Result.map
          (fun p -> Some (Core.Inject.create p))
          (Core.Inject.plan_of_string s)
  in
  match (inject_result, generate, report) with
  | _, None, None ->
      if files = [] then begin
        Format.eprintf
          "no litmus files given (or use --report DIR / --generate N)@.";
        2
      end
      else main files model_name verbose jobs metrics
  | Error msg, _, _ ->
      Format.eprintf "%s@." msg;
      2
  | Ok inject, Some n, _ -> (
      if metrics then Obs.Metrics.enable ();
      let schemes = match schemes with [] -> None | fs -> Some fs in
      let corpus, entries = Report.Sweep.generated_entries ?schemes ~seed n in
      if entries = [] then begin
        Format.eprintf "no generated scheme matches (known: %s)@."
          (scheme_names ());
        2
      end
      else begin
        Format.printf
          "generated %d program(s) (seed %d) -> %d shape class(es), dedup \
           %.1f%%, %d scheme(s)@."
          n seed
          (List.length corpus.Litmus.Generate.classes)
          (100. *. Litmus.Generate.dedup_ratio corpus)
          (List.length entries);
        match report with
        | None -> run_generate_smoke ~entries ~jobs
        | Some dir ->
            let journal =
              Option.value journal ~default:(Filename.concat dir "journal")
            in
            run_report ~dir ~entries ~shard_size:shard ~probe_targets:true
              ~journal:(Some journal) ~jobs ~metrics ~task_timeout ~task_retries ~inject
      end)
  | Ok inject, None, Some dir ->
      if metrics then Obs.Metrics.enable ();
      let entries =
        List.filter
          (fun (e : Report.Sweep.entry) ->
            schemes = [] || List.mem e.Report.Sweep.scheme schemes)
          (Report.Sweep.default_entries ())
      in
      if entries = [] then begin
        Format.eprintf "no scheme matches %s (known: %s)@."
          (String.concat ", " schemes) (scheme_names ());
        2
      end
      else
        let journal =
          match (journal, resume) with
          | Some j, _ -> Some j
          | None, true -> Some (Filename.concat dir "journal")
          | None, false -> None
        in
        (* Per-cell journaling: a killed sweep loses at most one cell. *)
        run_report ~dir ~entries ~shard_size:1 ~probe_targets:false ~journal
          ~jobs ~metrics ~task_timeout ~task_retries ~inject

let cmd =
  Cmd.v
    (Cmd.info "litmus_run" ~doc:"Check litmus files against their expectations")
    Term.(
      const main $ files_arg $ model_arg $ verbose_arg $ jobs_arg
      $ metrics_arg $ report_arg $ scheme_arg $ journal_arg $ resume_arg
      $ task_timeout_arg $ task_retries_arg $ inject_arg $ generate_arg
      $ seed_arg $ shard_arg)

let () = exit (Cmd.eval' cmd)
