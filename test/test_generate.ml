(* The generated-corpus pipeline: seeded determinism, canonicalization
   soundness, memoized verdicts, sharded resumable sweeps and
   pool-vs-sequential identity at batch scale. *)

module Ast = Litmus.Ast
module G = Litmus.Generate
module En = Litmus.Enumerate
module Check = Mapping.Check
module P = Parallel.Pool
module Sweep = Report.Sweep

let x86 = Axiom.X86_tso.model

let fig7a_entry () =
  List.find
    (fun (e : Sweep.entry) -> e.scheme = "fig7a/x86->tcg")
    (Sweep.default_entries ())

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let tmpdir prefix =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* A semantics-preserving obfuscation: reverse the thread order, permute
   location names, prefix register names.  Canonicalization must erase
   all three. *)
let obfuscate (p : Ast.prog) =
  let permute_loc = function
    | "x" -> "y"
    | "y" -> "z"
    | "z" -> "x"
    | l -> l
  in
  let rec exp = function
    | Ast.Int n -> Ast.Int n
    | Ast.Reg r -> Ast.Reg ("q" ^ r)
    | Ast.Add (a, b) -> Ast.Add (exp a, exp b)
    | Ast.Sub (a, b) -> Ast.Sub (exp a, exp b)
    | Ast.Mul (a, b) -> Ast.Mul (exp a, exp b)
    | Ast.Xor (a, b) -> Ast.Xor (exp a, exp b)
    | Ast.Eq (a, b) -> Ast.Eq (exp a, exp b)
    | Ast.Ne (a, b) -> Ast.Ne (exp a, exp b)
  in
  let rec instr = function
    | Ast.Load l -> Ast.Load { l with reg = "q" ^ l.reg; loc = permute_loc l.loc }
    | Ast.Store s ->
        Ast.Store { s with loc = permute_loc s.loc; value = exp s.value }
    | Ast.Cas c ->
        Ast.Cas
          {
            c with
            reg = Option.map (fun r -> "q" ^ r) c.reg;
            loc = permute_loc c.loc;
            expect = exp c.expect;
            desired = exp c.desired;
          }
    | Ast.Fence f -> Ast.Fence f
    | Ast.Assign (r, e) -> Ast.Assign ("q" ^ r, exp e)
    | Ast.If { cond; then_; else_ } ->
        Ast.If
          {
            cond = exp cond;
            then_ = List.map instr then_;
            else_ = List.map instr else_;
          }
  in
  {
    Ast.name = p.name ^ "-obf";
    init = List.map (fun (l, v) -> (permute_loc l, v)) p.init;
    threads =
      List.mapi
        (fun i (t : Ast.thread) -> { Ast.tid = i; code = List.map instr t.code })
        (List.rev p.threads);
  }

(* -------- seeded determinism -------- *)

let test_determinism () =
  let a = G.generate ~seed:42 300 and b = G.generate ~seed:42 300 in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun p q ->
      Alcotest.(check string)
        "same canonical rendering" (G.canonical_string p)
        (G.canonical_string q))
    a b;
  let c = G.generate ~seed:43 300 in
  Alcotest.(check bool)
    "different seed differs somewhere" true
    (List.exists2
       (fun p q -> G.canonical_string p <> G.canonical_string q)
       a c);
  let c1 = G.corpus ~seed:42 300 and c2 = G.corpus ~seed:42 300 in
  Alcotest.(check (list string))
    "same class names"
    (List.map (fun (c : G.cls) -> c.cls_name) c1.classes)
    (List.map (fun (c : G.cls) -> c.cls_name) c2.classes);
  Alcotest.(check bool)
    "dedup actually collapses" true
    (List.length c1.classes < c1.requested)

(* -------- canonicalization soundness -------- *)

let test_canonical_soundness () =
  let progs = G.generate ~seed:7 120 in
  List.iter
    (fun p ->
      let q = obfuscate p in
      Alcotest.(check string)
        "canonical erases renaming and thread order"
        (G.canonical_string p) (G.canonical_string q);
      Alcotest.(check string)
        "canonical is idempotent" (G.canonical_string p)
        (G.canonical_string (G.canonical p)))
    progs;
  (* Behaviour-set cardinality is renaming-invariant: the canonical
     representative's verdict speaks for the class. *)
  List.iteri
    (fun i p ->
      if i < 25 then
        Alcotest.(check int)
          "behaviour count invariant under canonicalization"
          (List.length (En.behaviours x86 p))
          (List.length (En.behaviours x86 (G.canonical p))))
    progs

(* -------- memoized verdict parity -------- *)

let test_memo_parity () =
  Check.clear_memo ();
  let e = fig7a_entry () in
  let corpus = G.corpus ~seed:3 150 in
  let classes = corpus.classes in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) classes
  in
  let fresh =
    Check.check_scheme ~name:e.scheme e.f ~src_model:e.src_model
      ~tgt_model:e.tgt_model named
  in
  let memo =
    List.map
      (fun np ->
        Check.check_memo ~scheme:e.scheme ~f:e.f ~src_model:e.src_model
          ~tgt_model:e.tgt_model np)
      named
  in
  List.iter2
    (fun (a : Check.report) (b : Check.report) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check bool) "ok" a.ok b.ok;
      Alcotest.(check int) "src" a.src_behaviours b.src_behaviours;
      Alcotest.(check int) "tgt" a.tgt_behaviours b.tgt_behaviours)
    fresh memo;
  (* Serving the raw (pre-dedup) batch hits the memo for every program
     whose class is already checked. *)
  let progs = G.generate ~seed:3 150 in
  let h0, m0 = Check.memo_stats () in
  List.iteri
    (fun i p ->
      ignore
        (Check.check_memo ~scheme:e.scheme ~f:e.f ~src_model:e.src_model
           ~tgt_model:e.tgt_model
           (Printf.sprintf "p%d" i, p)))
    progs;
  let h1, m1 = Check.memo_stats () in
  Alcotest.(check int) "no new verdicts computed" m0 m1;
  Alcotest.(check int) "every program served from the memo" (h0 + 150) h1

(* -------- journaled generated-sweep resume parity -------- *)

let test_resume_parity () =
  let dir = tmpdir "risotto-gensweep" in
  let j1 = Filename.concat dir "full.journal" in
  let j2 = Filename.concat dir "resumed.journal" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j1; j2 ];
  let _, entries = Sweep.generated_entries ~seed:11 120 in
  En.clear_caches ();
  let reference =
    Sweep.run_generated ~shard_size:32 ~journal:j1 entries
  in
  (* Interrupted run: only the first scheme's cells complete... *)
  let partial_entries = [ List.hd entries ] in
  let _ =
    Sweep.run_generated ~shard_size:32 ~journal:j2 partial_entries
  in
  (* ...then the resumed run replays them and computes the rest. *)
  En.clear_caches ();
  let resumed = Sweep.run_generated ~shard_size:32 ~journal:j2 entries in
  let cells_of (g : Sweep.generated) =
    List.map
      (fun (c : Sweep.cell) ->
        (c.scheme, c.program, c.report.Check.ok,
         c.report.Check.src_behaviours, c.report.Check.tgt_behaviours))
      g.gen_journaled.cells
  in
  Alcotest.(check int)
    "resumed run replayed the journaled prefix"
    (List.length (List.hd entries).corpus)
    resumed.gen_journaled.replayed;
  Alcotest.(check bool)
    "cell-for-cell parity with the uninterrupted run" true
    (cells_of reference = cells_of resumed);
  (* And a second resume replays everything, computing nothing. *)
  let again = Sweep.run_generated ~shard_size:32 ~journal:j2 entries in
  Alcotest.(check int) "nothing left to compute" 0 again.gen_journaled.computed;
  Alcotest.(check bool)
    "fully replayed run still identical" true
    (cells_of reference = cells_of again)

(* -------- coverage saturation accounting -------- *)

let test_saturation () =
  let dir = tmpdir "risotto-gensat" in
  let j = Filename.concat dir "sat.journal" in
  (try Sys.remove j with Sys_error _ -> ());
  let _, entries = Sweep.generated_entries ~seed:19 150 in
  let cov = Report.Coverage.create () in
  let g =
    Sweep.run_generated ~coverage:cov ~probe_targets:true ~shard_size:25
      ~journal:j entries
  in
  let total_cells =
    List.fold_left (fun a (s : Sweep.shard_stat) -> a + s.shard_cells) 0
      g.gen_shards
  in
  Alcotest.(check int)
    "shard stats cover every cell" total_cells
    (List.length g.gen_journaled.cells);
  let total_new =
    List.fold_left (fun a (s : Sweep.shard_stat) -> a + s.shard_new_pairs) 0
      g.gen_shards
  in
  let distinct_pairs =
    List.sort_uniq compare
      (List.map
         (fun ((k : Report.Coverage.key), _) -> (k.model, k.axiom))
         (Report.Coverage.counts cov))
  in
  Alcotest.(check int)
    "new-pair counts sum to the distinct (model, axiom) pairs"
    (List.length distinct_pairs) total_new;
  (* A corpus this size saturates the handful of discriminating axioms
     long before the last shard. *)
  (match g.gen_saturated_after with
  | Some s ->
      Alcotest.(check bool) "saturation shard within range" true
        (s >= 0 && s < List.length g.gen_shards)
  | None -> Alcotest.fail "expected saturation on a 150-program corpus")

(* -------- pool vs sequential identity on a 500-program batch -------- *)

let test_pool_identity () =
  let corpus = G.corpus ~seed:5 500 in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) corpus.classes
  in
  let schemes =
    List.filter
      (fun (e : Sweep.entry) ->
        List.mem e.scheme Sweep.default_generated_schemes)
      (Sweep.default_entries ())
  in
  let cells =
    List.concat_map
      (fun (e : Sweep.entry) ->
        List.map
          (fun (pname, src) ->
            {
              Check.cell_scheme = e.scheme;
              cell_program = pname;
              cell_f = e.f;
              cell_src_model = e.src_model;
              cell_tgt_model = e.tgt_model;
              cell_src = src;
            })
          named)
      schemes
  in
  (* Reference: the per-cell production primitive. *)
  let reference =
    List.map
      (fun (c : Check.cell) ->
        let r =
          Check.refines ~src_model:c.cell_src_model
            ~tgt_model:c.cell_tgt_model ~src:c.cell_src
            ~tgt:(c.cell_f c.cell_src)
        in
        { r with Check.name = c.cell_scheme ^ ": " ^ c.cell_program })
      cells
  in
  En.clear_caches ();
  let planned_seq = Check.check_cells cells in
  En.clear_caches ();
  let planned_pool = P.with_pool ~jobs:4 (fun pool -> Check.check_cells ~pool cells) in
  Alcotest.(check bool)
    "planner (sequential) matches per-cell reference" true
    (planned_seq = reference);
  Alcotest.(check bool)
    "planner (pool) matches per-cell reference" true
    (planned_pool = reference);
  (* The planner's whole point: strictly fewer enumerations than cells'
     naive 2-per-cell cost on a shared-target batch. *)
  En.clear_caches ();
  ignore (Check.check_cells cells);
  let _, misses = En.cache_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "shared enumeration (%d misses for %d cells)" misses
       (List.length cells))
    true
    (misses < 2 * List.length cells)

(* -------- force-spawned multi-domain pool still agrees -------- *)

let test_force_spawn_identity () =
  let corpus = G.corpus ~seed:23 120 in
  let named =
    List.map (fun (c : G.cls) -> (c.cls_name, c.cls_rep)) corpus.classes
  in
  let e = fig7a_entry () in
  let seq =
    Check.check_scheme ~name:e.scheme e.f ~src_model:e.src_model
      ~tgt_model:e.tgt_model named
  in
  let par =
    P.with_pool ~jobs:3 ~force_spawn:true (fun pool ->
        Check.check_scheme ~pool ~name:e.scheme e.f ~src_model:e.src_model
          ~tgt_model:e.tgt_model named)
  in
  Alcotest.(check bool) "cross-domain planner parity" true (seq = par)

(* -------- planner-backed sweep vs the per-cell reference -------- *)

(* The unstaged classifier the sweep used before the probe counted its
   rejections by class: [Explain.check]'s first violated axiom. *)
let classify (m : Axiom.Model.t) x =
  match Axiom.Explain.check m x with
  | Axiom.Explain.Violates { axiom; _ } -> axiom
  | Axiom.Explain.Consistent -> "(undiagnosed)"

(* The per-cell compute the sweep runner used before it planned jobs,
   kept here as the reference: [Check.refines], plus one unpruned probe
   per side, each rejection classified into a scratch table. *)
let reference_cell ~coverage ~probe_targets (e : Sweep.entry) (program, src)
    =
  let tgt = e.f src in
  let report =
    {
      (Check.refines ~src_model:e.src_model ~tgt_model:e.tgt_model ~src ~tgt)
      with
      Check.name = e.scheme ^ ": " ^ program;
    }
  in
  let deltas =
    if not coverage then []
    else begin
      let scratch = Report.Coverage.create () in
      let probe (model : Axiom.Model.t) p =
        ignore
          (En.behaviours_probed
             ~on_reject:(fun x ->
               Report.Coverage.add scratch
                 {
                   Report.Coverage.scheme = e.scheme;
                   program;
                   model = model.name;
                   axiom = classify model x;
                 }
                 1)
             model p)
      in
      probe e.src_model src;
      if probe_targets then probe e.tgt_model tgt;
      Report.Coverage.counts scratch
    end
  in
  let witnesses, shrunk =
    if report.Check.ok then ([], None)
    else
      ( Mapping.Witness.capture ~src_model:e.src_model ~tgt_model:e.tgt_model
          ~src ~tgt report,
        Some
          (Mapping.Witness.shrink ~scheme:e.f ~src_model:e.src_model
             ~tgt_model:e.tgt_model src) )
  in
  ({ Sweep.scheme = e.scheme; program; report; witnesses; shrunk }, deltas)

(* The journal writer the sweep used before it framed records on the
   pool, kept as the reference: one Printf-framed record per cell, its
   CRC-32 computed bit by bit rather than from a table. *)
let reference_crc s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let reference_journal records =
  let b = Buffer.create 4096 in
  Buffer.add_string b "RJNL1\n";
  List.iter
    (fun (key, value) ->
      let payload = Printf.sprintf "%08x %s%s" (String.length key) key value in
      Buffer.add_string b
        (Printf.sprintf "R %08x %08x\n%s\n" (String.length payload)
           (reference_crc payload) payload))
    records;
  Buffer.contents b

(* The reference sweep: cells, coverage table and checkpointed journal
   bytes. *)
let reference_sweep ~coverage ~probe_targets entries =
  let results =
    List.concat_map
      (fun (e : Sweep.entry) ->
        List.map (reference_cell ~coverage ~probe_targets e) e.corpus)
      entries
  in
  let cov = Report.Coverage.create () in
  List.iter
    (fun (_, deltas) ->
      List.iter (fun (k, n) -> Report.Coverage.add cov k n) deltas)
    results;
  ( List.map fst results,
    Report.Coverage.counts cov,
    reference_journal
      (List.map
         (fun ((c : Sweep.cell), deltas) ->
           (Sweep.cell_key c.scheme c.program, Sweep.verdict_record c.report deltas))
         results) )

let small_config =
  { G.default_config with max_threads = 2; max_locs = 2; max_instrs = 3 }

let check_planned_parity ?config ?(schemes = Sweep.default_generated_schemes)
    ~coverage ~probe_targets ~shard_size ~seed n =
  let _, entries = Sweep.generated_entries ?config ~schemes ~seed n in
  let dir = tmpdir "risotto-planned" in
  let journal = Filename.concat dir "reference.journal" in
  let ref_cells, ref_counts, ref_bytes =
    reference_sweep ~coverage ~probe_targets entries
  in
  Alcotest.(check bool) "the reference has cells" true (ref_cells <> []);
  let check_run pool =
      let label = if Option.is_some pool then "pool" else "sequential" in
      (try Sys.remove journal with Sys_error _ -> ());
      En.clear_caches ();
      let cov = Report.Coverage.create () in
      let g =
        Sweep.run_generated ~capture:true
          ?coverage:(if coverage then Some cov else None)
          ?pool ~shard_size ~probe_targets ~journal entries
      in
      let j = g.gen_journaled in
      Alcotest.(check bool) (label ^ ": no failures") true (j.failures = []);
      Alcotest.(check bool)
        (label ^ ": cells (report, witnesses, shrunk)")
        true (j.cells = ref_cells);
      Alcotest.(check bool)
        (label ^ ": coverage counts") true
        (Report.Coverage.counts cov = ref_counts);
      Alcotest.(check bool)
        (label ^ ": checkpointed journal bytes")
        true
        (read_file journal = ref_bytes)
  in
  check_run None;
  P.with_pool ~jobs:2 (fun pool -> check_run (Some pool))

let test_planned_small_probed () =
  check_planned_parity ~config:small_config ~coverage:true ~probe_targets:true
    ~shard_size:50 ~seed:3 400

let test_planned_default_source_probe () =
  check_planned_parity ~coverage:true ~probe_targets:false ~shard_size:64
    ~seed:4 200

let test_planned_no_coverage () =
  (* A scheme that fails on generated programs: witnesses and shrunk
     counterexamples are part of the parity. *)
  check_planned_parity
    ~schemes:[ "fig7a/x86->tcg"; "no-fences/arm-fix" ]
    ~coverage:false ~probe_targets:false ~shard_size:32 ~seed:5 200

(* The sweep frames its records on the pool and writes one batch per
   shard; the checkpointed journal must not depend on where the shard
   boundaries fall. *)
let test_journal_shard_sizes () =
  let _, entries = Sweep.generated_entries ~config:small_config ~seed:6 300 in
  let _, _, ref_bytes = reference_sweep ~coverage:true ~probe_targets:true entries in
  let journal = Filename.concat (tmpdir "risotto-shards") "journal" in
  P.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun shard_size ->
          (try Sys.remove journal with Sys_error _ -> ());
          En.clear_caches ();
          ignore
            (Sweep.run_generated ~capture:true ~coverage:(Report.Coverage.create ()) ~pool
               ~shard_size ~probe_targets:true ~journal entries);
          Alcotest.(check bool)
            (Printf.sprintf "shards of %d: journal bytes == per-record writer" shard_size)
            true
            (read_file journal = ref_bytes))
        [ 1; 7; 500 ])

let () =
  Alcotest.run "generate"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "canonicalization soundness" `Quick
            test_canonical_soundness;
        ] );
      ( "memo",
        [ Alcotest.test_case "verdict memo parity" `Quick test_memo_parity ] );
      ( "sweep",
        [
          Alcotest.test_case "journaled resume parity" `Quick
            test_resume_parity;
          Alcotest.test_case "coverage saturation accounting" `Quick
            test_saturation;
        ] );
      ( "planned sweep",
        [
          Alcotest.test_case "small shapes, both probes, shards of 50" `Quick
            test_planned_small_probed;
          Alcotest.test_case "default config, source probe" `Quick
            test_planned_default_source_probe;
          Alcotest.test_case "no coverage, failing scheme" `Quick
            test_planned_no_coverage;
          Alcotest.test_case "journal bytes at shard sizes 1, 7, 500" `Quick
            test_journal_shard_sizes;
        ] );
      ( "pool",
        [
          Alcotest.test_case "500-program pool identity" `Quick
            test_pool_identity;
          Alcotest.test_case "force-spawn cross-domain parity" `Quick
            test_force_spawn_identity;
        ] );
    ]
