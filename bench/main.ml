(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (§7), prints the §3 correctness findings, runs the
   DESIGN.md ablations, measures the engine itself with Bechamel (one
   Test.make per table/figure), and times the corpus × schemes
   refinement sweep sequentially vs on the Domain pool, recording the
   result as BENCH_refinement.json.

   Usage: main.exe [SECTION...] [-j N] [--reps N] [-o FILE] [--no-bechamel]

   Sections (default: all): fig2/fig3/fig7 (mapping tables), sec3,
   fig8/fig9 (minimality), fig12..fig15 (figures), ablations, bechamel,
   refinement (the JSON wall-clock bench).  "--no-bechamel" is kept as a
   shorthand for every section except bechamel. *)

let ppf = Format.std_formatter

(* Common artifact envelope: every BENCH_*.json opens with the same
   self-describing fields (schema_version / section / git_rev) so report
   tooling can validate any artifact the same way; the pre-existing
   per-bench fields follow unchanged at the top level (CI greps them by
   name). *)
let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       ignore (Unix.close_process_in ic);
       if line = "" then "unknown" else line
     with _ -> "unknown")

let envelope sec =
  Printf.sprintf
    "\"schema_version\": 1,\n  \"section\": %S,\n  \"git_rev\": %S," sec
    (Lazy.force git_rev)

let section title =
  Format.printf "@.===================================================@.";
  Format.printf "== %s@." title;
  Format.printf "===================================================@."

(* ------------------------------------------------------------------ *)
(* Mapping tables (Figures 2, 3, 7)                                    *)

let mapping_tables () =
  section "Mapping tables (Figures 2, 3, 7)";
  Harness.Figures.pp_mapping_tables ppf ()

(* ------------------------------------------------------------------ *)
(* §3 correctness findings                                             *)

let correctness_findings () =
  section "Section 3: correctness findings (exhaustive model checking)";
  let x86 = Axiom.X86_tso.model in
  let arm_orig = Axiom.Arm_cats.model Axiom.Arm_cats.Original in
  let arm_fix = Axiom.Arm_cats.model Axiom.Arm_cats.Corrected in
  let check name scheme tgt_model prog expect_violation =
    let r =
      Mapping.Check.refines ~src_model:x86 ~tgt_model ~src:prog
        ~tgt:(scheme prog)
    in
    Format.printf "  %-58s %s (expected %s)@." name
      (if r.Mapping.Check.ok then "correct" else "VIOLATION")
      (if expect_violation then "VIOLATION" else "correct")
  in
  let qemu_gcc10 =
    let fe, be = Mapping.Schemes.qemu_preset in
    Mapping.Schemes.x86_to_arm fe be
  in
  let qemu_gcc9 =
    Mapping.Schemes.(x86_to_arm Qemu_frontend (backend Qemu_frontend Helper_gcc9))
  in
  let risotto =
    let fe, be = Mapping.Schemes.risotto_rmw2_preset in
    Mapping.Schemes.x86_to_arm fe be
  in
  let risotto_casal =
    let fe, be = Mapping.Schemes.risotto_casal_preset in
    Mapping.Schemes.x86_to_arm fe be
  in
  check "Qemu (gcc10/casal) on MPQ  [par.3.2 error 1]" qemu_gcc10 arm_fix
    Litmus.Catalog.mpq_x86 true;
  check "Qemu (gcc9/ldaxr-stlxr) on SBQ  [par.3.2 error 2]" qemu_gcc9 arm_fix
    Litmus.Catalog.sbq_x86 true;
  check "Arm-Cats direct mapping on SBAL, original model  [par.3.3]"
    Mapping.Schemes.x86_to_arm_direct_armcats arm_orig Litmus.Catalog.sbal_x86
    true;
  check "Arm-Cats direct mapping on SBAL, corrected model  [fix]"
    Mapping.Schemes.x86_to_arm_direct_armcats arm_fix Litmus.Catalog.sbal_x86
    false;
  check "Risotto verified mapping (rmw2) on MPQ" risotto arm_fix
    Litmus.Catalog.mpq_x86 false;
  check "Risotto verified mapping (rmw2) on SBQ" risotto arm_fix
    Litmus.Catalog.sbq_x86 false;
  check "Risotto casal mapping on SBAL, corrected model" risotto_casal arm_fix
    Litmus.Catalog.sbal_x86 false;
  (* FMR: the RAW transformation at IR level (§3.2 error 3). *)
  let tcgm = Axiom.Tcg_model.model in
  let raw_applied =
    List.hd
      (Mapping.Transform.applications Mapping.Transform.Raw
         Litmus.Catalog.fmr_tcg_src)
  in
  let r =
    Mapping.Check.refines ~src_model:tcgm ~tgt_model:tcgm
      ~src:Litmus.Catalog.fmr_tcg_src ~tgt:raw_applied
  in
  Format.printf "  %-58s %s (expected VIOLATION)@."
    "RAW elimination across Fmr (FMR)  [par.3.2 error 3]"
    (if r.Mapping.Check.ok then "correct" else "VIOLATION")

(* ------------------------------------------------------------------ *)
(* Figures 8/9: mapping minimality                                     *)

let minimality ?pool () =
  section "Figures 8/9: mapping minimality (every rule is load-bearing)";
  let x86 = Axiom.X86_tso.model and tcg = Axiom.Tcg_model.model in
  let drop_kind k scheme p =
    Litmus.Ast.map_instrs
      (function Litmus.Ast.Fence f when f = k -> [] | i -> [ i ])
      (scheme p)
  in
  let base = Mapping.Schemes.(x86_to_tcg Risotto_frontend) in
  let broken scheme =
    List.filter_map
      (fun (name, src) ->
        if
          (Mapping.Check.refines ~src_model:x86 ~tgt_model:tcg ~src
             ~tgt:(scheme src))
            .Mapping.Check.ok
        then None
        else Some name)
      Litmus.Catalog.mapping_corpus
  in
  Format.printf "  full Figure-7a scheme: %d broken programs@."
    (List.length (broken base));
  List.iter
    (fun (label, kind) ->
      Format.printf "  without %-4s: breaks %s@." label
        (String.concat ", " (broken (drop_kind kind base))))
    [
      ("Frm", Axiom.Event.F_rm);
      ("Fww", Axiom.Event.F_ww);
      ("Fsc", Axiom.Event.F_sc);
    ];
  (* Per-token necessity inside the Figure-8 witnesses. *)
  List.iter
    (fun name ->
      let src = List.assoc name Litmus.Catalog.mapping_corpus in
      let sites =
        Mapping.Minimality.necessary_fences ?pool base ~src_model:x86
          ~tgt_model:tcg src
      in
      Format.printf "  %s image: %a@." name
        (Fmt.list ~sep:Fmt.comma Mapping.Minimality.pp_site)
        sites)
    [ "LB"; "MP" ]

(* ------------------------------------------------------------------ *)
(* Figures 12-15                                                       *)

let figures ?pool () =
  section "Figure 12: PARSEC / Phoenix run time";
  Harness.Figures.pp_fig12 ppf (Harness.Figures.fig12 ?pool ());
  section "Figure 13: OpenSSL / sqlite (dynamic host linker)";
  Harness.Figures.pp_fig13 ppf (Harness.Figures.fig13 ?pool ());
  section "Figure 14: libm (dynamic host linker)";
  Harness.Figures.pp_fig14 ppf (Harness.Figures.fig14 ?pool ());
  section "Figure 15: CAS throughput";
  Harness.Figures.pp_fig15 ppf (Harness.Figures.fig15 ?pool ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablations () =
  section "Ablation: fence merging (tcg-ver with vs without the pass)";
  Format.printf "%-18s %12s %12s %9s@." "benchmark" "with-merge" "no-merge"
    "saved";
  List.iter
    (fun (name, w, wo) ->
      Format.printf "%-18s %12d %12d %8.2f%%@." name w wo
        (100. *. (1. -. (float_of_int w /. float_of_int wo))))
    (Harness.Ablation.fence_merge ());
  section "Ablation: CAS line-transfer cost sweep (4 threads / 1 var)";
  Format.printf "%-10s %12s %12s %10s@." "transfer" "qemu" "risotto" "gain";
  List.iter
    (fun (t, q, r) ->
      Format.printf "%-10d %12.3e %12.3e %9.1f%%@." t q r
        (100. *. ((r /. q) -. 1.)))
    (Harness.Ablation.cas_transfer_sweep ());
  section "Static translation statistics (freqmine)";
  Format.printf "%-12s %8s %10s@." "config" "dmbs" "tcg-ops";
  List.iter
    (fun (name, dmbs, ops) -> Format.printf "%-12s %8d %10d@." name dmbs ops)
    (Harness.Ablation.static_fences "freqmine")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)

let bechamel_benches () =
  section "Bechamel: wall-clock micro-benchmarks (one per table/figure)";
  let open Bechamel in
  let stage = Staged.stage in
  let fig12_one config =
    let spec = (Harness.Parsec.find "freqmine").Harness.Parsec.spec in
    let spec = { spec with Harness.Kernel.iters = 100 } in
    fun () -> ignore (Harness.Kernel.run_dbt config spec)
  in
  let fig13_one () =
    ignore
      (Harness.Libbench.run
         {
           Harness.Libbench.label = "sha256-1024";
           func = "sha256";
           kind = Harness.Libbench.Digest 1024;
           calls = 1;
         })
  in
  let fig14_one () =
    ignore
      (Harness.Libbench.run
         {
           Harness.Libbench.label = "sin";
           func = "sin";
           kind = Harness.Libbench.Scalar (Int64.bits_of_float 0.5);
           calls = 10;
         })
  in
  let fig15_one () =
    ignore (Harness.Casbench.run { Harness.Casbench.threads = 4; vars = 1 })
  in
  let sec3_one () =
    let fe, be = Mapping.Schemes.risotto_casal_preset in
    ignore
      (Mapping.Check.refines ~src_model:Axiom.X86_tso.model
         ~tgt_model:(Axiom.Arm_cats.model Axiom.Arm_cats.Corrected)
         ~src:Litmus.Catalog.mpq_x86
         ~tgt:(Mapping.Schemes.x86_to_arm fe be Litmus.Catalog.mpq_x86))
  in
  let litmus_one () =
    ignore
      (Litmus.Enumerate.behaviours Axiom.X86_tso.model Litmus.Catalog.mp_x86)
  in
  let translate_image =
    Image.Gelf.build ~entry:"main"
      (Harness.Kernel.to_x86
         {
           Harness.Kernel.name = "tb";
           iters = 1;
           mix =
             { Harness.Kernel.loads = 6; stores = 2; arith = 8; fp = 0; locks = 0 };
         })
  in
  let translate_one () =
    let eng = Core.Engine.create Core.Config.risotto translate_image in
    ignore (Core.Engine.lookup_block eng translate_image.Image.Gelf.entry)
  in
  Bechamel_runner.run ~name:"risotto"
    [
      Test.make ~name:"fig12/freqmine/qemu" (stage (fig12_one Core.Config.qemu));
      Test.make ~name:"fig12/freqmine/risotto"
        (stage (fig12_one Core.Config.risotto));
      Test.make ~name:"fig13/sha256-1024" (stage fig13_one);
      Test.make ~name:"fig14/sin" (stage fig14_one);
      Test.make ~name:"fig15/cas-4-1" (stage fig15_one);
      Test.make ~name:"sec3/theorem1-MPQ" (stage sec3_one);
      Test.make ~name:"litmus/enumerate-MP" (stage litmus_one);
      Test.make ~name:"dbt/translate-block" (stage translate_one);
    ]

(* ------------------------------------------------------------------ *)
(* Refinement sweep wall-clock bench → BENCH_refinement.json           *)

(* Every mapping scheme the test suite checks, over the whole corpus:
   the workload behind every Theorem-1 verdict in this repo. *)
let all_schemes = Report.Sweep.mapping_entries ()

let sweep_tasks () =
  List.concat_map
    (fun (e : Report.Sweep.entry) ->
      List.map
        (fun (tname, src) ->
          (e.scheme, tname, e.f, e.src_model, e.tgt_model, src))
        e.corpus)
    all_schemes

let run_sweep ?pool tasks =
  Parallel.Pool.map_list ?pool
    (fun (sname, tname, f, src_model, tgt_model, src) ->
      let r = Mapping.Check.refines ~src_model ~tgt_model ~src ~tgt:(f src) in
      { r with Mapping.Check.name = Printf.sprintf "%s: %s" sname tname })
    tasks

let sweep_cells tasks =
  List.map
    (fun (sname, tname, f, src_model, tgt_model, src) ->
      {
        Mapping.Check.cell_scheme = sname;
        cell_program = tname;
        cell_f = f;
        cell_src_model = src_model;
        cell_tgt_model = tgt_model;
        cell_src = src;
      })
    tasks

(* Wall time of the best of [reps] cold-cache runs. *)
let time_runs ~reps run =
  let best = ref infinity in
  let reports = ref [] in
  for _ = 1 to reps do
    Litmus.Enumerate.clear_caches ();
    let t0 = Unix.gettimeofday () in
    reports := run ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (!best, !reports)

(* Enumerations (behaviour-cache misses) of one cold run of [run]. *)
let count_enumerations run =
  Litmus.Enumerate.clear_caches ();
  let _, m0 = Litmus.Enumerate.cache_stats () in
  ignore (run ());
  let _, m1 = Litmus.Enumerate.cache_stats () in
  m1 - m0

let chunk_json stats =
  String.concat ", "
    (List.map
       (fun (c : Parallel.Pool.chunk_stat) ->
         Printf.sprintf
           {|{ "domain": %d, "start": %d, "len": %d, "us": %.1f }|}
           c.Parallel.Pool.c_domain c.Parallel.Pool.c_start
           c.Parallel.Pool.c_len c.Parallel.Pool.c_us)
       stats)

(* The sequential arm is the per-task [refines] loop — the exact code
   path of every earlier recorded baseline — while the parallel arm
   goes through the batch planner ([check_cells]): cells are grouped by
   target program and the model-independent survivor set is enumerated
   once per program for all models that need it, as chunked pool
   batches.  On a 1-core box the pool spawns no surplus domains and the
   speedup is the planner's structural work reduction; with real cores
   the chunks also run concurrently. *)
let refinement_bench ~jobs ~reps ~out () =
  section
    (Printf.sprintf
       "Refinement sweep wall-clock bench (sequential vs -j %d planned, best \
        of %d)"
       jobs reps);
  let tasks = sweep_tasks () in
  let cells = sweep_cells tasks in
  let seq_s, seq_reports = time_runs ~reps (fun () -> run_sweep tasks) in
  let (par_s, par_reports), chunks, workers =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        let timed =
          time_runs ~reps (fun () -> Mapping.Check.check_cells ~pool cells)
        in
        (timed, Parallel.Pool.batch_stats pool, Parallel.Pool.workers_spawned pool))
  in
  let seq_enums = count_enumerations (fun () -> run_sweep tasks) in
  let par_enums =
    count_enumerations (fun () -> Mapping.Check.check_cells cells)
  in
  let hits, misses = Litmus.Enumerate.cache_stats () in
  let identical = seq_reports = par_reports in
  let violations =
    List.length (List.filter (fun r -> not r.Mapping.Check.ok) seq_reports)
  in
  let speedup = seq_s /. par_s in
  let chunk_size =
    List.fold_left
      (fun acc (c : Parallel.Pool.chunk_stat) -> max acc c.Parallel.Pool.c_len)
      0 chunks
  in
  let domains_used =
    List.length
      (List.sort_uniq compare
         (List.map
            (fun (c : Parallel.Pool.chunk_stat) -> c.Parallel.Pool.c_domain)
            chunks))
  in
  Format.printf
    "  %d tasks (%d schemes x %d programs): sequential %.3fs, -j %d planned \
     %.3fs, speedup %.2fx@.  enumerations: %d per-task vs %d planned; %d \
     chunk(s) of <=%d over %d domain(s) (%d worker(s) spawned)@.  verdicts \
     identical: %b; violations (expected bug reports): %d@."
    (List.length tasks) (List.length all_schemes)
    (List.length Litmus.Catalog.mapping_corpus)
    seq_s jobs par_s speedup seq_enums par_enums (List.length chunks)
    chunk_size domains_used workers identical violations;
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "corpus x schemes refinement sweep",
  "schemes": %d,
  "corpus_programs": %d,
  "tasks": %d,
  "reps": %d,
  "jobs": %d,
  "recommended_domains": %d,
  "workers_spawned": %d,
  "sequential_s": %.6f,
  "parallel_s": %.6f,
  "speedup": %.3f,
  "enumerations": { "sequential": %d, "planned": %d },
  "chunk_size": %d,
  "domains_used": %d,
  "chunks": [%s],
  "verdicts_identical": %b,
  "violations": %d,
  "behaviour_cache": { "hits": %d, "misses": %d }
}
|}
    (envelope "refinement")
    (List.length all_schemes)
    (List.length Litmus.Catalog.mapping_corpus)
    (List.length tasks) reps jobs
    (Domain.recommended_domain_count ())
    workers seq_s par_s speedup seq_enums par_enums chunk_size domains_used
    (chunk_json chunks) identical violations hits misses;
  close_out oc;
  Format.printf "  wrote %s@." out;
  if not identical then begin
    Format.eprintf "refinement bench: parallel verdicts diverge!@.";
    exit 2
  end;
  if speedup <= 1.0 then begin
    Format.eprintf
      "refinement bench: planned parallel sweep did not beat the per-task \
       baseline (%.3fx)!@."
      speedup;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Generator bench: QCheck corpus throughput → BENCH_generator.json    *)

(* End-to-end throughput of the generated pipeline: generate + dedup a
   seeded corpus, check the shape classes per-task vs through the
   planner, then serve the full (pre-dedup) corpus from the verdict
   memo — the steady-state cost of one verdict per generated program. *)
let generator_bench ~jobs ~reps ~gen_n ~seed ~out () =
  section
    (Printf.sprintf
       "Generator bench: %d seeded programs through the planned sweep (best \
        of %d)"
       gen_n reps);
  let t0 = Unix.gettimeofday () in
  let corpus, entries = Report.Sweep.generated_entries ~seed gen_n in
  let gen_s = Unix.gettimeofday () -. t0 in
  let classes = List.length corpus.Litmus.Generate.classes in
  let dedup = Litmus.Generate.dedup_ratio corpus in
  let cells =
    List.concat_map
      (fun (e : Report.Sweep.entry) ->
        List.map
          (fun (pname, src) ->
            {
              Mapping.Check.cell_scheme = e.Report.Sweep.scheme;
              cell_program = pname;
              cell_f = e.Report.Sweep.f;
              cell_src_model = e.Report.Sweep.src_model;
              cell_tgt_model = e.Report.Sweep.tgt_model;
              cell_src = src;
            })
          e.Report.Sweep.corpus)
      entries
  in
  let per_task () =
    List.map
      (fun (c : Mapping.Check.cell) ->
        let r =
          Mapping.Check.refines ~src_model:c.Mapping.Check.cell_src_model
            ~tgt_model:c.Mapping.Check.cell_tgt_model
            ~src:c.Mapping.Check.cell_src
            ~tgt:(c.Mapping.Check.cell_f c.Mapping.Check.cell_src)
        in
        {
          r with
          Mapping.Check.name =
            Printf.sprintf "%s: %s" c.Mapping.Check.cell_scheme
              c.Mapping.Check.cell_program;
        })
      cells
  in
  let seq_s, seq_reports = time_runs ~reps per_task in
  let (par_s, par_reports), workers =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        let timed =
          time_runs ~reps (fun () -> Mapping.Check.check_cells ~pool cells)
        in
        (timed, Parallel.Pool.workers_spawned pool))
  in
  let identical = seq_reports = par_reports in
  (* Memo-served steady state: every generated program (not just the
     class representatives) gets a verdict; canonically-equal programs
     share one.  Warm caches deliberately — this measures the serving
     cost, the cold cost is the planned arm above. *)
  let raw_programs =
    List.map
      (fun (p : Litmus.Ast.prog) -> (p.Litmus.Ast.name, p))
      (Litmus.Generate.generate ~seed gen_n)
  in
  let memo_tasks =
    List.concat_map
      (fun (e : Report.Sweep.entry) ->
        List.map (fun (pname, p) -> (e, pname, p)) raw_programs)
      entries
  in
  Mapping.Check.clear_memo ();
  let t0 = Unix.gettimeofday () in
  let served =
    List.map
      (fun ((e : Report.Sweep.entry), pname, p) ->
        Mapping.Check.check_memo ~scheme:e.Report.Sweep.scheme
          ~f:e.Report.Sweep.f ~src_model:e.Report.Sweep.src_model
          ~tgt_model:e.Report.Sweep.tgt_model (pname, p))
      memo_tasks
  in
  let memo_s = Unix.gettimeofday () -. t0 in
  let memo_hits, memo_misses = Mapping.Check.memo_stats () in
  let memo_tasks_n = List.length memo_tasks in
  let tasks_per_s = float_of_int memo_tasks_n /. memo_s in
  let served_ok = List.for_all (fun r -> r.Mapping.Check.ok) served in
  let speedup = seq_s /. par_s in
  Format.printf
    "  generated %d -> %d classes (dedup %.1f%%) in %.3fs; %d cells@.  \
     per-task %.3fs, -j %d planned %.3fs, speedup %.2fx (%d worker(s)); \
     verdicts identical: %b@.  memo-served: %d verdicts in %.3fs (%.0f \
     tasks/s, %d hits / %d misses), all ok: %b@."
    gen_n classes (100. *. dedup) gen_s (List.length cells) seq_s jobs par_s
    speedup workers identical memo_tasks_n memo_s tasks_per_s memo_hits
    memo_misses served_ok;
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "generated corpus: dedup + planned sweep + memo serving",
  "programs": %d,
  "seed": %d,
  "classes": %d,
  "dedup_ratio": %.4f,
  "generate_s": %.6f,
  "schemes": %d,
  "cells": %d,
  "reps": %d,
  "jobs": %d,
  "workers_spawned": %d,
  "sequential_s": %.6f,
  "parallel_s": %.6f,
  "speedup": %.3f,
  "verdicts_identical": %b,
  "memo": { "tasks": %d, "wall_s": %.6f, "tasks_per_s": %.1f, "hits": %d, "misses": %d },
  "all_ok": %b
}
|}
    (envelope "generator") gen_n seed classes dedup gen_s
    (List.length entries) (List.length cells) reps jobs workers seq_s par_s
    speedup identical memo_tasks_n memo_s tasks_per_s memo_hits memo_misses
    served_ok;
  close_out oc;
  Format.printf "  wrote %s@." out;
  if not identical then begin
    Format.eprintf "generator bench: planned verdicts diverge!@.";
    exit 2
  end;
  if not served_ok then begin
    Format.eprintf
      "generator bench: a generated scheme reported a violation!@.";
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Dispatch bench: chained vs unchained vs interp → BENCH_dispatch.json *)

(* One pass over the PARSEC/Phoenix kernels under a config, recording
   per-kernel result fingerprints (final registers + memory) alongside
   cycle and dispatch statistics.  Results are deterministic; wall time
   is the best of [reps] passes. *)
let dispatch_pass config =
  List.map
    (fun b ->
      let spec = b.Harness.Parsec.spec in
      let g, eng = Harness.Kernel.run_dbt config spec in
      let stats = Core.Engine.stats eng in
      ( spec.Harness.Kernel.name,
        (* Guest-visible state only: registers RAX..R15 (indices 0-15;
           higher indices are host scratch registers, which legitimately
           differ between backend code and the interpreter). *)
        Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16,
        Memsys.Mem.dump (Core.Engine.memory eng),
        Core.Engine.cycles g,
        stats ))
    Harness.Parsec.all

let dispatch_bench ~reps ~out () =
  section
    (Printf.sprintf
       "Dispatch bench: chained vs unchained vs interp (%d kernels, best of \
        %d)"
       (List.length Harness.Parsec.all)
       reps);
  let risotto = Core.Config.risotto in
  let chained =
    { risotto with Core.Config.name = "risotto"; trace_threshold = 16 }
  in
  let unchained = { risotto with Core.Config.chain = false } in
  let interp =
    (* Force every block onto the TCG interpreter: the no-JIT baseline. *)
    {
      risotto with
      Core.Config.chain = false;
      inject = [ Core.Inject.Always Core.Inject.Compile ];
    }
  in
  (* Minor words are counted over the last rep: deterministic (no
     wall-clock input), and past the first rep's one-off lazy set-up. *)
  let time config =
    let best = ref infinity in
    let results = ref [] in
    let words = ref 0. in
    for _ = 1 to reps do
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      let r = dispatch_pass config in
      let dt = Unix.gettimeofday () -. t0 in
      words := Gc.minor_words () -. w0;
      results := r;
      if dt < !best then best := dt
    done;
    (!best, !results, !words)
  in
  let chained_s, chained_r, chained_w = time chained in
  let unchained_s, unchained_r, unchained_w = time unchained in
  let interp_s, interp_r, _ = time interp in
  let sum f results =
    List.fold_left (fun acc (_, _, _, _, s) -> acc + f s) 0 results
  in
  let cycles results =
    List.fold_left (fun acc (_, _, _, c, _) -> acc + c) 0 results
  in
  let c_cycles = cycles chained_r and u_cycles = cycles unchained_r in
  let c_exec = sum (fun s -> s.Core.Engine.blocks_executed) chained_r in
  let u_exec = sum (fun s -> s.Core.Engine.blocks_executed) unchained_r in
  (* Unchained dispatches once per guest block, so [u_exec] is the true
     guest-block count; both runs execute the same guest blocks (parity
     is asserted below), a chained dispatch just covers a whole trace.
     Cycles-per-block therefore compares guest cycles over the same
     denominator, and the dispatch counts show the amortization. *)
  let guest_blocks = u_exec in
  let cpb c =
    if guest_blocks = 0 then 0.0
    else float_of_int c /. float_of_int guest_blocks
  in
  let c_cpb = cpb c_cycles and u_cpb = cpb u_cycles in
  let wpb w = if guest_blocks = 0 then 0.0 else w /. float_of_int guest_blocks in
  let c_wpb = wpb chained_w and u_wpb = wpb unchained_w in
  let chained_edges = sum (fun s -> s.Core.Engine.chained) chained_r in
  let chain_hits = sum (fun s -> s.Core.Engine.chain_hits) chained_r in
  let jcache_hits = sum (fun s -> s.Core.Engine.jmp_cache_hits) chained_r in
  let superblocks = sum (fun s -> s.Core.Engine.superblocks) chained_r in
  let lookups = sum (fun s -> s.Core.Engine.lookups) chained_r in
  let interp_fb = sum (fun s -> s.Core.Engine.interp_fallbacks) interp_r in
  let chain_hit_rate =
    if lookups = 0 then 0.0 else float_of_int chain_hits /. float_of_int lookups
  in
  (* Result parity: chained, unchained and interp runs must agree on
     every kernel's final registers and memory. *)
  let parity =
    List.for_all2
      (fun (n1, r1, m1, _, _) (n2, r2, m2, _, _) ->
        n1 = n2 && r1 = r2 && m1 = m2)
      chained_r unchained_r
    && List.for_all2
         (fun (n1, r1, m1, _, _) (n2, r2, m2, _, _) ->
           n1 = n2 && r1 = r2 && m1 = m2)
         unchained_r interp_r
  in
  Format.printf
    "  wall: chained %.3fs, unchained %.3fs, interp %.3fs@.  guest cycles: \
     chained %d, unchained %d (%.2f%% saved by cross-block optimization)@.  \
     cycles/block over %d guest blocks: chained %.2f, unchained %.2f@.  \
     minor words/block: chained %.1f, unchained %.1f@.  \
     dispatches: chained %d, unchained %d (%.1fx fewer)@.  chained stats: %d \
     edges patched, %d chain hits, %d jcache hits, %d superblocks, chain-hit \
     rate %.1f%%@.  interp fallbacks (forced): %d@.  results identical: %b@."
    chained_s unchained_s interp_s c_cycles u_cycles
    (100. *. (1. -. (float_of_int c_cycles /. float_of_int u_cycles)))
    guest_blocks c_cpb u_cpb c_wpb u_wpb c_exec u_exec
    (float_of_int u_exec /. float_of_int (max 1 c_exec))
    chained_edges chain_hits jcache_hits superblocks (100. *. chain_hit_rate)
    interp_fb parity;
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "dispatch: chained vs unchained vs interp",
  "kernels": %d,
  "reps": %d,
  "trace_threshold": %d,
  "guest_blocks": %d,
  "chained": {
    "wall_s": %.6f,
    "cycles": %d,
    "dispatches": %d,
    "cycles_per_block": %.3f,
    "minor_words_per_block": %.3f,
    "edges_patched": %d,
    "chain_hits": %d,
    "jmp_cache_hits": %d,
    "superblocks": %d,
    "chain_hit_rate": %.4f
  },
  "unchained": {
    "wall_s": %.6f,
    "cycles": %d,
    "dispatches": %d,
    "cycles_per_block": %.3f,
    "minor_words_per_block": %.3f
  },
  "interp": {
    "wall_s": %.6f,
    "interp_fallbacks": %d
  },
  "cycles_per_block_ratio": %.4f,
  "dispatch_reduction": %.2f,
  "results_identical": %b
}
|}
    (envelope "dispatch")
    (List.length Harness.Parsec.all)
    reps chained.Core.Config.trace_threshold guest_blocks chained_s c_cycles
    c_exec c_cpb c_wpb chained_edges chain_hits jcache_hits superblocks
    chain_hit_rate unchained_s u_cycles u_exec u_cpb u_wpb interp_s interp_fb
    (if u_cpb = 0.0 then 0.0 else c_cpb /. u_cpb)
    (float_of_int u_exec /. float_of_int (max 1 c_exec))
    parity;
  close_out oc;
  Format.printf "  wrote %s@." out;
  if not parity then begin
    Format.eprintf "dispatch bench: chained/unchained results diverge!@.";
    exit 2
  end;
  (* The deterministic acceptance gates: superblocks must fire, every
     dispatch metric must improve, and cross-block optimization must
     not cost guest cycles. *)
  if superblocks = 0 || chain_hits = 0 then begin
    Format.eprintf "dispatch bench: chaining/superblocks did not engage!@.";
    exit 2
  end;
  if c_cycles >= u_cycles || c_exec >= u_exec then begin
    Format.eprintf
      "dispatch bench: chained dispatch did not beat unchained (%.3f vs %.3f \
       cycles/block, %d vs %d dispatches)!@."
      c_cpb u_cpb c_exec u_exec;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Observability bench: parity + disabled overhead → BENCH_obs.json    *)

(* Passes over the dispatch kernels — obs fully off, flight recorder
   off, metrics on, tracer on — must produce byte-identical guest end
   states, cycles and engine statistics (the probes and the recorder
   are behaviour-invisible).  The cost of a disabled probe and of one
   enabled flight-recorder event are microbenchmarked directly and
   compared against the measured per-block dispatch time: the hooks
   compiled into the hot path must cost <2%% of a block (hard gate at
   5%% for disabled probes, 2%% for the always-on recorder).  The
   metrics pass also reads back the fence-provenance ledger counters
   (fence.<kind>.<outcome>) to report the merged ratio, and an async
   tiered pass feeds the tier-lifecycle latency histograms so the
   request-to-publish percentiles land in the JSON. *)
let obs_bench ~reps ~out ~trace_out () =
  section
    (Printf.sprintf
       "Observability: tracer/metrics/recorder parity and overhead (%d \
        kernels, best of %d)"
       (List.length Harness.Parsec.all)
       reps);
  let config =
    { Core.Config.risotto with Core.Config.trace_threshold = 16 }
  in
  let time_pass () =
    let best = ref infinity in
    let results = ref [] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = dispatch_pass config in
      let dt = Unix.gettimeofday () -. t0 in
      results := r;
      if dt < !best then best := dt
    done;
    (!best, !results)
  in
  (* The flight recorder is always-on: the "off" baseline below runs
     with it recording, exactly as production does.  The extra
     recorder-off pass pins down differential parity and the
     wall-clock cost of leaving it on. *)
  Obs.Trace.disable ();
  Obs.Metrics.disable ();
  let off_s, off_r = time_pass () in
  Obs.Flight.disable ();
  let norec_s, norec_r = time_pass () in
  Obs.Flight.enable ();
  Obs.Metrics.enable ();
  let met_s, met_r = time_pass () in
  let met_snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  Obs.Trace.enable ();
  let trace_s, trace_r = time_pass () in
  Obs.Trace.disable ();
  let trace_events = Obs.Trace.write trace_out in
  (* Parity: registers, memory, guest cycles and every stats counter. *)
  let same =
    List.for_all2 (fun (n1, r1, m1, c1, s1) (n2, r2, m2, c2, s2) ->
        n1 = n2 && r1 = r2 && m1 = m2 && c1 = c2 && s1 = s2)
  in
  let parity = same off_r met_r && same off_r trace_r in
  let recorder_parity = same off_r norec_r in
  (* Microbenchmark one disabled probe bundle (span + counter +
     histogram), then cost it against the measured per-block wall
     time of the instrumented dispatch loop. *)
  let iters = 2_000_000 in
  let c = Obs.Metrics.counter "bench.obs.noop" in
  let h = Obs.Metrics.histogram "bench.obs.noop_ns" in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Trace.with_span ~cat:"bench" "noop" (fun () -> ());
    Obs.Metrics.incr c;
    Obs.Metrics.observe h (Sys.opaque_identity i)
  done;
  let probe_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  let blocks =
    List.fold_left
      (fun acc (_, _, _, _, s) -> acc + s.Core.Engine.blocks_executed)
      0 off_r
  in
  let block_ns = off_s *. 1e9 /. float_of_int (max 1 blocks) in
  (* The dispatch loop crosses at most two probe sites per executed
     block while disabled (the metrics gate in step_block, plus the
     translate/superblock spans amortized over reuse). *)
  let overhead_pct = 2.0 *. probe_ns /. block_ns *. 100.0 in
  (* The recorder itself: one enabled record is three unboxed array
     stores and an increment; step_block logs one block-enter per
     dispatched block (tier events are amortized over block reuse), so
     record_ns/block_ns bounds the always-on cost. *)
  let ring = Obs.Flight.create () in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Flight.record ring Obs.Flight.Block_enter 0x1000L
      (Sys.opaque_identity i)
  done;
  let record_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  let recorder_pct = record_ns /. block_ns *. 100.0 in
  let recorder_wall_delta_pct =
    if norec_s > 0.0 then (off_s -. norec_s) /. norec_s *. 100.0 else 0.0
  in
  (* Fence-elimination provenance: the metrics pass accumulated the
     fence.<kind>.<outcome> ledger counters while the risotto pipeline
     (Fence_merge included) retranslated every kernel. *)
  let fence_outcome suffix =
    List.fold_left
      (fun acc (name, v) ->
        if Filename.check_suffix name suffix then acc + v else acc)
      0
      (Obs.Metrics.counters_with_prefix met_snap "fence.")
  in
  let fence_emitted = fence_outcome ".emitted" in
  let fence_merged = fence_outcome ".merged" in
  let fence_dropped = fence_outcome ".dropped" in
  let merged_ratio =
    if fence_emitted = 0 then 0.0
    else
      float_of_int (fence_merged + fence_dropped)
      /. float_of_int fence_emitted
  in
  (* Tier-lifecycle latency: an async tiered pass (background installs,
     metrics on) feeds the request-to-publish and queue-wait
     histograms; a percentile is the upper bound of the first log2
     bucket whose cumulative count reaches the quantile. *)
  let tiered =
    {
      config with
      Core.Config.jit_threshold = 8;
      trace_threshold = 24;
      sync_compile = false;
    }
  in
  Obs.Metrics.enable ();
  List.iter
    (fun b ->
      let _, eng = Harness.Kernel.run_dbt tiered b.Harness.Parsec.spec in
      Core.Engine.drain_installs eng)
    Harness.Parsec.all;
  let lat_snap = Obs.Metrics.snapshot () in
  Obs.Metrics.disable ();
  let percentile (h : Obs.Metrics.hist_snap) q =
    if h.Obs.Metrics.count = 0 then 0
    else begin
      let target =
        max 1 (int_of_float (ceil (q *. float_of_int h.Obs.Metrics.count)))
      in
      let acc = ref 0 and res = ref 0 in
      (try
         Array.iteri
           (fun b n ->
             acc := !acc + n;
             if !acc >= target then begin
               (res := if b = 0 then 0 else (1 lsl min b 62) - 1);
               raise Exit
             end)
           h.Obs.Metrics.counts
       with Exit -> ());
      !res
    end
  in
  let hist name =
    match Obs.Metrics.find_histogram lat_snap name with
    | Some h -> h
    | None -> { Obs.Metrics.count = 0; sum = 0; counts = [||] }
  in
  let req_pub = hist "tier.request_to_publish.ns" in
  let queue_wait = hist "tier.install_queue.ns" in
  Format.printf
    "  wall: off %.3fs, recorder-off %.3fs, metrics %.3fs, trace %.3fs@.  \
     parity (regs, memory, cycles, stats): probes %b, recorder %b@.  \
     disabled probe bundle: %.1f ns; dispatch block: %.0f ns; overhead \
     %.3f%% (target <2%%, gate 5%%)@.  recorder event: %.1f ns; overhead \
     %.3f%% (gate 2%%); wall delta %+.2f%%@.  fences: %d emitted, %d \
     merged, %d dropped -> merged ratio %.3f@.  install latency \
     (request->publish, %d sample(s)): p50 %d ns, p95 %d ns, p99 %d ns; \
     queue wait p95 %d ns@.  trace: %d event(s) -> %s@."
    off_s norec_s met_s trace_s parity recorder_parity probe_ns block_ns
    overhead_pct record_ns recorder_pct recorder_wall_delta_pct fence_emitted
    fence_merged fence_dropped merged_ratio req_pub.Obs.Metrics.count
    (percentile req_pub 0.50) (percentile req_pub 0.95)
    (percentile req_pub 0.99) (percentile queue_wait 0.95) trace_events
    trace_out;
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "observability: parity, overhead, fence provenance, tier latency",
  "kernels": %d,
  "reps": %d,
  "off_s": %.6f,
  "recorder_off_s": %.6f,
  "metrics_s": %.6f,
  "trace_s": %.6f,
  "parity": %b,
  "recorder_parity": %b,
  "disabled_probe_ns": %.3f,
  "dispatch_block_ns": %.3f,
  "disabled_overhead_pct": %.4f,
  "recorder_record_ns": %.3f,
  "recorder_overhead_pct": %.4f,
  "recorder_wall_delta_pct": %.4f,
  "fence_emitted": %d,
  "fence_merged": %d,
  "fence_dropped": %d,
  "fence_merged_ratio": %.4f,
  "install_latency": { "count": %d, "p50_ns": %d, "p95_ns": %d, "p99_ns": %d },
  "install_queue_wait": { "count": %d, "p50_ns": %d, "p95_ns": %d },
  "trace_events": %d
}
|}
    (envelope "obs")
    (List.length Harness.Parsec.all)
    reps off_s norec_s met_s trace_s parity recorder_parity probe_ns block_ns
    overhead_pct record_ns recorder_pct recorder_wall_delta_pct fence_emitted
    fence_merged fence_dropped merged_ratio req_pub.Obs.Metrics.count
    (percentile req_pub 0.50) (percentile req_pub 0.95)
    (percentile req_pub 0.99) queue_wait.Obs.Metrics.count
    (percentile queue_wait 0.50) (percentile queue_wait 0.95) trace_events;
  close_out oc;
  Format.printf "  wrote %s@." out;
  if not parity then begin
    Format.eprintf "obs bench: enabling observability changed results!@.";
    exit 2
  end;
  if not recorder_parity then begin
    Format.eprintf
      "obs bench: disabling the flight recorder changed results!@.";
    exit 2
  end;
  if overhead_pct > 5.0 then begin
    Format.eprintf
      "obs bench: disabled-probe overhead %.3f%% exceeds the 5%% gate!@."
      overhead_pct;
    exit 2
  end;
  if recorder_pct > 2.0 then begin
    Format.eprintf
      "obs bench: always-on recorder overhead %.3f%% exceeds the 2%% gate!@."
      recorder_pct;
    exit 2
  end;
  if fence_emitted = 0 then begin
    Format.eprintf
      "obs bench: the fence ledger recorded no emitted fences!@.";
    exit 2
  end;
  if req_pub.Obs.Metrics.count = 0 then begin
    Format.eprintf
      "obs bench: the async tiered pass published no installs!@.";
    exit 2
  end;
  if trace_events = 0 then begin
    Format.eprintf "obs bench: trace run recorded no events!@.";
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Chaos campaign: seeded fault plans over the resilience sites
   (pool-task, journal-write, cache-write) → BENCH_chaos.json.

   Each campaign runs a reduced journaled sweep under a deterministic
   injection plan, then resumes without chaos and asserts the
   robustness invariants: no verdict lost, none duplicated, every
   failure typed, and the resumed verdict table identical to a
   fault-free reference run. *)

let chaos_entries () =
  List.filter
    (fun (e : Report.Sweep.entry) ->
      List.mem e.Report.Sweep.scheme [ "fig2/x86->tcg"; "transform-raw" ])
    (Report.Sweep.default_entries ())

let cell_sig (c : Report.Sweep.cell) =
  ( c.Report.Sweep.scheme,
    c.Report.Sweep.program,
    c.Report.Sweep.report.Mapping.Check.ok,
    c.Report.Sweep.report.Mapping.Check.src_behaviours,
    c.Report.Sweep.report.Mapping.Check.tgt_behaviours )

(* Deterministic plan family: rotate crash-the-journal, flaky-tasks and
   poison-everything shapes, parameterized by the campaign seed. *)
let chaos_plan ~seed i =
  match i mod 3 with
  | 0 -> Printf.sprintf "nth:journal-write:%d" (1 + ((seed + i) mod 4))
  | 1 -> Printf.sprintf "seeded:pool-task:%d:300" (seed + i)
  | _ -> "always:pool-task"

type campaign = {
  plan : string;
  crashed : bool;  (* the injected journal tear killed the first run *)
  first_failures : int;  (* typed failures surfaced by the chaos run *)
  resumes : int;  (* chaos-free resumes needed to converge *)
  converged : bool;  (* final table == reference, journal keys unique *)
}

let run_campaign ~entries ~reference ~tmp i plan_str =
  (* Cold behaviour caches: each campaign must do the real enumeration
     work, as a fresh resumed process would. *)
  Litmus.Enumerate.clear_caches ();
  let journal = Filename.concat tmp (Printf.sprintf "journal-%d" i) in
  let inject =
    match Core.Inject.plan_of_string plan_str with
    | Ok p -> Core.Inject.create p
    | Error msg -> failwith msg
  in
  let policy =
    {
      Parallel.Supervise.default with
      retries = 2;
      backoff_s = 0.0005;
      max_backoff_s = 0.002;
      chaos = Some (Core.Inject.fire_hook inject Core.Inject.Pool_task);
    }
  in
  let journal_chaos =
    Core.Inject.fire_hook inject Core.Inject.Journal_write
  in
  let crashed, first_failures =
    match
      Report.Sweep.run_generated ~policy ~journal_chaos ~journal entries
    with
    | g -> (false, List.length g.Report.Sweep.gen_journaled.failures)
    | exception Parallel.Frontier.Injected_fault _ -> (true, 0)
  in
  (* Chaos-free resumes: each retries the cells the chaos run lost.
     One resume must suffice (the environment is healthy again), but
     count up to 3 before declaring divergence. *)
  let rec converge k =
    if k > 3 then (k - 1, None)
    else
      let r =
        (Report.Sweep.run_generated ~journal entries).Report.Sweep.gen_journaled
      in
      if r.Report.Sweep.failures = [] then (k, Some r) else converge (k + 1)
  in
  let resumes, final = converge 1 in
  let converged =
    match final with
    | None -> false
    | Some r ->
        let table_ok =
          List.map cell_sig r.Report.Sweep.cells
          = List.map cell_sig reference
        in
        (* The checkpointed journal must hold exactly one record per
           cell: nothing lost, nothing duplicated. *)
        let rec_ = Parallel.Frontier.recover_file journal in
        let keys = List.map fst rec_.Parallel.Frontier.entries in
        table_ok
        && List.length keys = List.length reference
        && List.length (List.sort_uniq compare keys) = List.length keys
  in
  { plan = plan_str; crashed; first_failures; resumes; converged }

(* Watchdog: a sub-microsecond deadline must fire as typed timeouts (no
   hang, no untyped exception) for the cells that do real enumeration
   work, and a deadline-free resume must then fill the whole table.  A
   trivial cell may legitimately finish inside the 32-poll clock
   stride, so the invariant is "timeouts fired, every failure is a
   typed Timed_out, and completed + timed-out covers the table" rather
   than "everything timed out". *)
let run_watchdog ~entries ~reference ~tmp =
  Litmus.Enumerate.clear_caches ();
  let journal = Filename.concat tmp "journal-watchdog" in
  let policy =
    { Parallel.Supervise.default with deadline_s = Some 1e-6 }
  in
  let r =
    (Report.Sweep.run_generated ~policy ~journal entries)
      .Report.Sweep.gen_journaled
  in
  let timeouts =
    List.length
      (List.filter
         (fun (_, _, f) ->
           match f with
           | Parallel.Supervise.Timed_out _ -> true
           | Parallel.Supervise.Quarantined _ -> false)
         r.Report.Sweep.failures)
  in
  let fired =
    timeouts > 0
    && timeouts = List.length r.Report.Sweep.failures
    && List.length r.Report.Sweep.cells + timeouts = List.length reference
  in
  let r2 =
    (Report.Sweep.run_generated ~journal entries).Report.Sweep.gen_journaled
  in
  let recovered =
    r2.Report.Sweep.failures = []
    && List.map cell_sig r2.Report.Sweep.cells = List.map cell_sig reference
  in
  (timeouts, fired, recovered)

(* Cache-write: an injected fault between the cache's tmp write and its
   rename must abort the save without touching the previous file, and a
   flipped byte in a saved entry must quarantine exactly that entry. *)
let run_cache_campaign ~tmp =
  let open X86.Asm in
  let module I = X86.Insn in
  let module R = X86.Reg in
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 5L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins (I.Mov_ri (R.R13, 77L));
      Ins I.Hlt;
    ]
  in
  let image = Image.Gelf.build ~entry:"main" items in
  let path = Filename.concat tmp "chaos.tc" in
  let faulty =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Core.Inject.Nth (Core.Inject.Cache_write, 1) ];
    }
  in
  let eng = Core.Engine.create faulty image in
  ignore (Core.Engine.run eng);
  let save_blocked =
    match Core.Engine.save_cache eng path with
    | _ -> false
    | exception Core.Fault.Fault f ->
        f.Core.Fault.kind = Core.Fault.Cache_corrupt
        && not (Sys.file_exists path)
  in
  (* Second save: the nth:1 rule is spent, the write lands. *)
  let saved = Core.Engine.save_cache eng path in
  let verify_ok =
    match Core.Engine.verify_cache path with
    | Ok (n, []) -> n = saved
    | _ -> false
  in
  (* Flip one byte inside the last entry's body. *)
  let s =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string s in
  let at = Bytes.length b - 1 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc b);
  let eng2 = Core.Engine.create Core.Config.risotto image in
  let quarantine_ok =
    match Core.Engine.load_cache eng2 path with
    | Ok n ->
        n = saved - 1
        && (Core.Engine.stats eng2).Core.Engine.cache_quarantined = 1
    | Error _ -> false
  in
  let g = Core.Engine.run eng2 in
  let rerun_ok = Core.Engine.reg g R.R13 = 77L in
  (save_blocked, verify_ok, quarantine_ok, rerun_ok)

(* Postmortem campaign: an injected decode fault under the always-on
   flight recorder must dump a postmortem, and the dump must be
   byte-deterministic — the same image, config and plan written to two
   fresh directories produce identical files.  The first directory is
   kept in the working tree so CI can assert on and upload the
   artifact. *)
let postmortem_dir = "chaos_postmortems"

let run_postmortem_campaign ~tmp =
  let open X86.Asm in
  let module I = X86.Insn in
  let module R = X86.Reg in
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 3L));
      Label "loop";
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]
  in
  let image = Image.Gelf.build ~entry:"main" items in
  let faulty =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Core.Inject.Always Core.Inject.Decode ];
    }
  in
  let run dir =
    let eng = Core.Engine.create faulty image in
    Core.Engine.set_postmortem_dir eng (Some dir);
    let g = Core.Engine.run eng in
    let trapped = Core.Engine.trap g <> None in
    let written = Core.Engine.postmortems_written eng in
    let body =
      let path = Filename.concat dir "postmortem-000.json" in
      if Sys.file_exists path then begin
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      end
      else ""
    in
    (trapped, written, body)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn > 0 && go 0
  in
  let trapped1, written1, body1 = run postmortem_dir in
  let trapped2, written2, body2 =
    run (Filename.concat tmp "postmortems")
  in
  let wrote = trapped1 && trapped2 && written1 >= 1 && written2 >= 1 in
  let deterministic = body1 <> "" && body1 = body2 in
  let well_formed =
    contains body1 {|"schema":"risotto.postmortem.v1"|}
    && contains body1 {|"kind":"trap"|}
    && contains body1 {|"fence_ledgers"|}
    && contains body1 {|"tiers"|}
  in
  (written1, wrote, deterministic, well_formed)

let chaos_bench ~plans ~seed ~out () =
  section
    (Printf.sprintf
       "Chaos campaign (%d seeded plan(s), seed %d) over the resilience \
        sites"
       plans seed);
  let tmp = Filename.temp_file "risotto_chaos" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  let entries = chaos_entries () in
  let reference =
    (Report.Sweep.run_generated entries).Report.Sweep.gen_journaled.cells
  in
  Format.printf "  reference: %d cells over %d scheme(s)@."
    (List.length reference) (List.length entries);
  let campaigns =
    List.init plans (fun i ->
        let plan = chaos_plan ~seed i in
        let c = run_campaign ~entries ~reference ~tmp i plan in
        Format.printf
          "  plan %-28s crashed:%b typed-failures:%d resumes:%d \
           converged:%b@."
          c.plan c.crashed c.first_failures c.resumes c.converged;
        c)
  in
  let timeouts, watchdog_fired, watchdog_recovered =
    run_watchdog ~entries ~reference ~tmp
  in
  Format.printf
    "  watchdog: %d timeout(s), typed and covering: %b, recovered on \
     resume: %b@."
    timeouts watchdog_fired watchdog_recovered;
  let save_blocked, verify_ok, quarantine_ok, rerun_ok =
    run_cache_campaign ~tmp
  in
  Format.printf
    "  cache: save blocked pre-rename: %b, verify: %b, quarantine: %b, \
     rerun correct: %b@."
    save_blocked verify_ok quarantine_ok rerun_ok;
  let pm_written, pm_wrote, pm_deterministic, pm_well_formed =
    run_postmortem_campaign ~tmp
  in
  Format.printf
    "  postmortem: %d written to %s/, trap dumped: %b, byte-deterministic: \
     %b, well-formed: %b@."
    pm_written postmortem_dir pm_wrote pm_deterministic pm_well_formed;
  (* Best-effort scratch cleanup; artifacts are tiny either way.  The
     cwd postmortem directory is deliberately kept for CI to pick up. *)
  (try
     let pm = Filename.concat tmp "postmortems" in
     if Sys.file_exists pm then begin
       Array.iter (fun f -> Sys.remove (Filename.concat pm f)) (Sys.readdir pm);
       Unix.rmdir pm
     end;
     Array.iter
       (fun f -> Sys.remove (Filename.concat tmp f))
       (Sys.readdir tmp);
     Unix.rmdir tmp
   with Sys_error _ | Unix.Unix_error _ -> ());
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "seeded chaos campaign over resilience sites",
  "plans": %d,
  "seed": %d,
  "cells": %d,
  "campaigns": [%s],
  "watchdog": { "timeouts": %d, "fired": %b, "recovered": %b },
  "cache": { "save_blocked": %b, "verify_ok": %b, "quarantine_ok": %b, "rerun_ok": %b },
  "postmortems": { "written": %d, "dir": %S, "trap_dumped": %b, "deterministic": %b, "well_formed": %b }
}
|}
    (envelope "chaos") plans seed
    (List.length reference)
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf
              {|{ "plan": %S, "crashed": %b, "typed_failures": %d, "resumes": %d, "converged": %b }|}
              c.plan c.crashed c.first_failures c.resumes c.converged)
          campaigns))
    timeouts watchdog_fired watchdog_recovered save_blocked verify_ok
    quarantine_ok rerun_ok pm_written postmortem_dir pm_wrote pm_deterministic
    pm_well_formed;
  close_out oc;
  Format.printf "  wrote %s@." out;
  let failed =
    List.exists (fun c -> not c.converged) campaigns
    || (not watchdog_fired) || (not watchdog_recovered) || (not save_blocked)
    || (not verify_ok) || (not quarantine_ok) || (not rerun_ok)
    || (not pm_wrote) || (not pm_deterministic) || not pm_well_formed
  in
  if failed then begin
    Format.eprintf "chaos bench: a robustness invariant failed!@.";
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Tier bench: tier0-only vs sync-all vs tiered-async → BENCH_tiers.json *)

(* One pass over the PARSEC/Phoenix kernels under a tier configuration.
   [drain_installs] after each kernel settles any background compiles
   before the stats are read (and quiesces the shared service so the
   next kernel starts clean). *)
let tiers_pass config =
  List.map
    (fun b ->
      let spec = b.Harness.Parsec.spec in
      let g, eng = Harness.Kernel.run_dbt config spec in
      Core.Engine.drain_installs eng;
      ( spec.Harness.Kernel.name,
        Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16,
        Memsys.Mem.dump (Core.Engine.memory eng),
        Core.Engine.cycles g,
        Core.Engine.stats eng ))
    Harness.Parsec.all

(* Cold-start image: a long straight-line program the frontend splits
   into ~[n] distinct blocks, each executed exactly once — the
   translation-dominated regime the tier ladder is built for.  A
   synchronous engine backend-compiles every block before its first
   execution; a tiered engine never crosses the threshold and reaches
   Hlt on the interpreter alone. *)
let cold_start_items n =
  let open X86.Asm in
  let module I = X86.Insn in
  let module R = X86.Reg in
  let body =
    List.concat_map
      (fun k ->
        let m =
          {
            I.base = None;
            index = None;
            disp = Int64.of_int (0x5000 + (8 * (k mod 16)));
          }
        in
        [
          Ins (I.Store (m, I.R R.RAX));
          Ins (I.Load (R.RBX, m));
          Ins (I.Alu (I.Add, R.RAX, I.R R.RBX));
          Ins (I.Alu (I.Xor, R.RCX, I.R R.RAX));
        ])
      (List.init (n * 8) Fun.id)
  in
  (Label "main" :: body) @ [ Ins I.Hlt ]

let tiers_bench ~reps ~out () =
  section
    (Printf.sprintf
       "Tier ladder: tier0-only vs sync-all vs tiered-async (%d kernels, \
        best of %d)"
       (List.length Harness.Parsec.all)
       reps);
  let risotto = Core.Config.risotto in
  let jit_threshold = 8 and tier2_threshold = 24 in
  (* tier0: the threshold is unreachable, every block stays on the
     interpreter.  sync-all: the pre-ladder configuration (immediate
     backend compile, static trace trigger — the dispatch-bench
     chained config).  tiered: the full ladder with background
     installs. *)
  let tier0 =
    { risotto with Core.Config.jit_threshold = max_int; trace_threshold = 0 }
  in
  let sync_all = { risotto with Core.Config.trace_threshold = 16 } in
  let tiered =
    {
      risotto with
      Core.Config.jit_threshold;
      trace_threshold = tier2_threshold;
      sync_compile = false;
    }
  in
  let time config =
    let best = ref infinity in
    let results = ref [] in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = tiers_pass config in
      let dt = Unix.gettimeofday () -. t0 in
      results := r;
      if dt < !best then best := dt
    done;
    (!best, !results)
  in
  let tier0_s, tier0_r = time tier0 in
  let sync_s, sync_r = time sync_all in
  let tiered_s, tiered_r = time tiered in
  let sum f results =
    List.fold_left (fun acc (_, _, _, _, s) -> acc + f s) 0 results
  in
  let cycles results =
    List.fold_left (fun acc (_, _, _, c, _) -> acc + c) 0 results
  in
  (* tier0 runs with no superblocks: one dispatch per guest block, so
     its dispatch count is the true guest-block total all three
     configurations execute (parity is asserted below). *)
  let guest_blocks = sum (fun s -> s.Core.Engine.blocks_executed) tier0_r in
  let cpb c =
    if guest_blocks = 0 then 0.0
    else float_of_int c /. float_of_int guest_blocks
  in
  let stat_block results =
    ( cycles results,
      sum (fun s -> s.Core.Engine.interp_execs) results,
      sum (fun s -> s.Core.Engine.tier1_installed) results,
      sum (fun s -> s.Core.Engine.superblocks) results,
      sum (fun s -> s.Core.Engine.deopts) results,
      sum (fun s -> s.Core.Engine.install_hwm) results,
      sum (fun s -> s.Core.Engine.installs_dropped) results )
  in
  let t0_cycles, t0_interp, t0_inst, t0_super, t0_deopt, t0_hwm, t0_drop =
    stat_block tier0_r
  in
  let sy_cycles, sy_interp, sy_inst, sy_super, sy_deopt, sy_hwm, sy_drop =
    stat_block sync_r
  in
  let ti_cycles, ti_interp, ti_inst, ti_super, ti_deopt, ti_hwm, ti_drop =
    stat_block tiered_r
  in
  let parity =
    List.for_all2
      (fun (n1, r1, m1, _, _) (n2, r2, m2, _, _) ->
        n1 = n2 && r1 = r2 && m1 = m2)
      tier0_r sync_r
    && List.for_all2
         (fun (n1, r1, m1, _, _) (n2, r2, m2, _, _) ->
           n1 = n2 && r1 = r2 && m1 = m2)
         sync_r tiered_r
  in
  (* Cold start: time-to-first-N-blocks on a translation-dominated
     straight-line image, fresh engine per run.  One untimed warmup
     per config absorbs one-off process state (the shared background
     service domain, lazy metrics). *)
  let cold_blocks = 96 in
  let cold_image = Image.Gelf.build ~entry:"main" (cold_start_items cold_blocks) in
  let cold_run config =
    let eng = Core.Engine.create config cold_image in
    let g = Core.Engine.run eng in
    Core.Engine.drain_installs eng;
    if Core.Engine.trap g <> None then begin
      Format.eprintf "tiers bench: cold-start run trapped!@.";
      exit 2
    end
  in
  let cold_time config =
    cold_run config;
    let best = ref infinity in
    for _ = 1 to max 3 reps do
      let t0 = Unix.gettimeofday () in
      cold_run config;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cold_sync_s = cold_time sync_all in
  let cold_tiered_s = cold_time tiered in
  Format.printf
    "  wall: tier0 %.3fs, sync-all %.3fs, tiered %.3fs@.  guest cycles over \
     %d guest blocks: tier0 %d (interp charges none), sync-all %d (%.2f/blk), \
     tiered %d (%.2f/blk)@.  tiered ladder: %d interp execs, %d installs, %d \
     superblocks, %d deopts, queue hwm %d, dropped %d@.  cold start (%d \
     blocks, once each): sync %.6fs, tiered %.6fs (%.2fx)@.  results \
     identical: %b@."
    tier0_s sync_s tiered_s guest_blocks t0_cycles sy_cycles (cpb sy_cycles)
    ti_cycles (cpb ti_cycles) ti_interp ti_inst ti_super ti_deopt ti_hwm
    ti_drop cold_blocks cold_sync_s cold_tiered_s
    (cold_sync_s /. cold_tiered_s)
    parity;
  let pp_config oc name wall (cycles, interp, inst, super, deopt, hwm, drop) =
    Printf.fprintf oc
      {|  %S: {
    "wall_s": %.6f,
    "cycles": %d,
    "cycles_per_block": %.3f,
    "interp_execs": %d,
    "tier1_installed": %d,
    "superblocks": %d,
    "deopts": %d,
    "install_hwm": %d,
    "installs_dropped": %d
  },
|}
      name wall cycles (cpb cycles) interp inst super deopt hwm drop
  in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  %s
  "bench": "tiers: tier0-only vs sync-all vs tiered-async",
  "kernels": %d,
  "reps": %d,
  "jit_threshold": %d,
  "tier2_threshold": %d,
  "guest_blocks": %d,
|}
    (envelope "tiers")
    (List.length Harness.Parsec.all)
    reps jit_threshold tier2_threshold guest_blocks;
  pp_config oc "tier0" tier0_s
    (t0_cycles, t0_interp, t0_inst, t0_super, t0_deopt, t0_hwm, t0_drop);
  pp_config oc "sync_all" sync_s
    (sy_cycles, sy_interp, sy_inst, sy_super, sy_deopt, sy_hwm, sy_drop);
  pp_config oc "tiered" tiered_s
    (ti_cycles, ti_interp, ti_inst, ti_super, ti_deopt, ti_hwm, ti_drop);
  Printf.fprintf oc
    {|  "cold": {
    "blocks": %d,
    "sync_s": %.6f,
    "tiered_s": %.6f,
    "speedup": %.4f
  },
  "results_identical": %b
}
|}
    cold_blocks cold_sync_s cold_tiered_s
    (cold_sync_s /. cold_tiered_s)
    parity;
  close_out oc;
  Format.printf "  wrote %s@." out;
  if not parity then begin
    Format.eprintf "tiers bench: tier ladder results diverge!@.";
    exit 2
  end;
  if ti_interp = 0 || ti_inst = 0 || ti_super = 0 then begin
    Format.eprintf
      "tiers bench: the ladder did not engage (%d interp, %d installs, %d \
       superblocks)!@."
      ti_interp ti_inst ti_super;
    exit 2
  end;
  if cpb ti_cycles > cpb sy_cycles then begin
    Format.eprintf
      "tiers bench: tiered execution cost more guest cycles than sync-all \
       (%.3f vs %.3f cycles/block)!@."
      (cpb ti_cycles) (cpb sy_cycles);
    exit 2
  end;
  if cold_tiered_s >= cold_sync_s then begin
    Format.eprintf
      "tiers bench: tiered cold start not faster than synchronous \
       translation (%.6fs vs %.6fs)!@."
      cold_tiered_s cold_sync_s;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Section dispatch                                                    *)

type opts = {
  sections : string list;  (* canonical names, in request order *)
  jobs : int;
  reps : int;
  out : string;
  dispatch_out : string;
  obs_out : string;
  trace_out : string;
  chaos_out : string;
  plans : int;
  seed : int;
  gen_out : string;
  gen_n : int;
  tiers_out : string;
}

let canonical = function
  | "fig1" | "fig2" | "fig3" | "fig7" | "tables" -> Some "tables"
  | "sec3" | "correctness" -> Some "sec3"
  | "fig8" | "fig9" | "minimality" -> Some "minimality"
  | "fig12" | "fig13" | "fig14" | "fig15" | "figures" -> Some "figures"
  | "ablations" -> Some "ablations"
  | "bechamel" -> Some "bechamel"
  | "refinement" | "bench-json" -> Some "refinement"
  | "dispatch" -> Some "dispatch"
  | "obs" | "observability" -> Some "obs"
  | "chaos" | "resilience" -> Some "chaos"
  | "generator" | "generate" -> Some "generator"
  | "tiers" | "tier" -> Some "tiers"
  | _ -> None

let all_sections =
  [ "tables"; "sec3"; "minimality"; "figures"; "ablations"; "bechamel";
    "refinement"; "dispatch"; "obs"; "chaos"; "generator"; "tiers" ]

let usage () =
  Format.eprintf
    "usage: main.exe [SECTION...] [-j N] [--reps N] [-o FILE] \
     [--dispatch-out FILE] [--obs-out FILE] [--trace-out FILE] \
     [--chaos-out FILE] [--plans N] [--seed N] [--gen-out FILE] [--gen-n N] \
     [--tiers-out FILE] [--no-bechamel]@.sections: fig2 fig3 fig7 sec3 fig8 \
     fig9 fig12..fig15 ablations bechamel refinement dispatch obs chaos \
     generator tiers@.";
  exit 1

let parse_args () =
  let sections = ref [] in
  let no_bechamel = ref false in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let reps = ref 3 in
  let out = ref "BENCH_refinement.json" in
  let dispatch_out = ref "BENCH_dispatch.json" in
  let obs_out = ref "BENCH_obs.json" in
  let trace_out = ref "obs_trace.json" in
  let chaos_out = ref "BENCH_chaos.json" in
  let plans = ref 3 in
  let seed = ref 42 in
  let gen_out = ref "BENCH_generator.json" in
  let gen_n = ref 1000 in
  let tiers_out = ref "BENCH_tiers.json" in
  let rec go = function
    | [] -> ()
    | "--no-bechamel" :: rest ->
        no_bechamel := true;
        go rest
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> jobs := n
        | _ -> usage ());
        go rest
    | "--reps" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> reps := n
        | _ -> usage ());
        go rest
    | "-o" :: path :: rest ->
        out := path;
        go rest
    | "--dispatch-out" :: path :: rest ->
        dispatch_out := path;
        go rest
    | "--obs-out" :: path :: rest ->
        obs_out := path;
        go rest
    | "--trace-out" :: path :: rest ->
        trace_out := path;
        go rest
    | "--chaos-out" :: path :: rest ->
        chaos_out := path;
        go rest
    | "--gen-out" :: path :: rest ->
        gen_out := path;
        go rest
    | "--tiers-out" :: path :: rest ->
        tiers_out := path;
        go rest
    | "--gen-n" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> gen_n := n
        | _ -> usage ());
        go rest
    | "--plans" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> plans := n
        | _ -> usage ());
        go rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 0 -> seed := n
        | _ -> usage ());
        go rest
    | s :: rest -> (
        match canonical s with
        | Some c ->
            if not (List.mem c !sections) then sections := c :: !sections;
            go rest
        | None -> usage ())
  in
  go (List.tl (Array.to_list Sys.argv));
  let sections =
    match List.rev !sections with
    | [] ->
        List.filter
          (fun s -> not (!no_bechamel && s = "bechamel"))
          all_sections
    | chosen -> chosen
  in
  {
    sections;
    jobs = !jobs;
    reps = !reps;
    out = !out;
    dispatch_out = !dispatch_out;
    obs_out = !obs_out;
    trace_out = !trace_out;
    chaos_out = !chaos_out;
    plans = !plans;
    seed = !seed;
    gen_out = !gen_out;
    gen_n = !gen_n;
    tiers_out = !tiers_out;
  }

let () =
  let {
    sections;
    jobs;
    reps;
    out;
    dispatch_out;
    obs_out;
    trace_out;
    chaos_out;
    plans;
    seed;
    gen_out;
    gen_n;
    tiers_out;
  } =
    parse_args ()
  in
  let pool = if jobs > 1 then Some (Parallel.Pool.create ~jobs ()) else None in
  List.iter
    (fun s ->
      match s with
      | "tables" -> mapping_tables ()
      | "sec3" -> correctness_findings ()
      | "minimality" -> minimality ?pool ()
      | "figures" -> figures ?pool ()
      | "ablations" -> ablations ()
      | "bechamel" -> bechamel_benches ()
      | "refinement" -> refinement_bench ~jobs ~reps ~out ()
      | "dispatch" -> dispatch_bench ~reps ~out:dispatch_out ()
      | "obs" -> obs_bench ~reps ~out:obs_out ~trace_out ()
      | "chaos" -> chaos_bench ~plans ~seed ~out:chaos_out ()
      | "generator" -> generator_bench ~jobs ~reps ~gen_n ~seed ~out:gen_out ()
      | "tiers" -> tiers_bench ~reps ~out:tiers_out ()
      | _ -> assert false)
    sections;
  (match pool with Some p -> Parallel.Pool.shutdown p | None -> ());
  Format.printf "@.done.@."
