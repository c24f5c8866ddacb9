(* The generated-corpus pipeline: seeded determinism, canonicalization
   soundness, sharded resumable sweeps, the planner against per-cell
   checking, and pool-vs-sequential identity at batch scale.

   Programs: test/checker_corpus.ml's catalog and seeded sample; the
   pool-identity batch and each config's canonical-form batch are its
   first 500 programs without [--corpus N]. *)

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
    | Ast.Rmw c ->
        Ast.Rmw
          {
            c with
            reg = Option.map (fun r -> "q" ^ r) c.reg;
            loc = permute_loc c.loc;
            op =
              (match c.op with
              | Ast.Cas { expect; desired } -> Ast.Cas { expect = exp expect; desired = exp desired }
              | Ast.Fetch_add e -> Ast.Fetch_add (exp e)
              | Ast.Exchange e -> Ast.Exchange (exp e));
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

(* -------- canonical form against the reference -------- *)

(* perf's litmus-journaled shapes, and up to four threads. *)
let small_config = { G.default_config with max_threads = 2; max_locs = 2; max_instrs = 3 }
let four_threads = { G.default_config with max_threads = 4 }

(* Shapes the generator never draws: branches, assignments, computed
   values, expressions over two registers not yet named, non-zero and
   unequal init values, init-only locations, code locations without an
   init entry, every RMW and annotation, and twelve locations (l10 sorts
   before l2). *)
let hand_written () =
  List.map Litmus.Parser.parse_prog
    [
      {|test computed
        init X=1 Y=2 Z=0
        thread P0 { c := (a + b); st X, (c * a); ld d, Y }
        thread P1 {
          ld e, Z
          if (e == 1) { xchg.x86 f <- Y, (e ^ g) } else { xadd.amo.a.l X, 1 }
          fence DMB.ST
        }
        thread P2 { st.rel Y, -1; ld.acq h, X; cas.lxsx.l X, (h != 0), (h - 2) }|};
      (* The smaller init comes with the larger threads. *)
      {|test init-decides
        init X=1 Y=0
        thread P0 { ld a, X }
        thread P1 { st Y, 1 }|};
      {|test init-only
        init W=5
        thread P0 { ld a, X; st Y, (a + b); st W, 1 }
        thread P1 { ld b, Y; r := (b + c); st X, r; ld.q c, W }|};
      {|test twins
        init X=0 Y=0 Z=0
        thread P0 { st X, 1; fence MFENCE; ld a, Y }
        thread P1 { st Y, 1; fence MFENCE; ld b, X }
        thread P2 { st Y, 1; fence MFENCE; ld b, X }
        thread P3 { cas.x86 c <- Z, 0, 1; st.sc X, 2; ld.sc d, Z }|};
      {|test twelve
        init A=0 B=0 C=0 D=0 E=0 F=0 G=0 H=0 I=0 J=0 K=0 L=1
        thread P0 { st A, 1; st B, 1; st C, 1; st D, 1; st E, 1; st F, 1 }
        thread P1 { st G, 1; st H, 1; st I, 1; st J, 1; st K, 1; ld a, L }
        thread P2 { ld b, K; ld c, A }|};
    ]
  @ [
      (* Two entries, of one value, for one location: again the smaller
         init comes with the larger threads. *)
      {
        Ast.name = "dup-init";
        init = [ ("X", 0); ("Y", 0); ("X", 0) ];
        threads =
          [
            { Ast.tid = 0; code = [ Ast.Load { reg = "a"; loc = "Y"; ord = Axiom.Event.R_plain } ] };
            { Ast.tid = 1; code = [ Ast.Store { loc = "X"; value = Ast.Int 1; ord = Axiom.Event.W_plain } ] };
          ];
      };
    ]

let test_canonical_reference () =
  let check what (p : Ast.prog) =
    let s = G.canonical_string p and r = Canonical_reference.canonical_string p in
    if s <> r then Alcotest.failf "%s %s: canonical string %s, reference %s" what p.name s r;
    if G.canonical p <> Canonical_reference.canonical p then
      Alcotest.failf "%s %s: representative differs from the reference's" what p.name
  in
  List.iter (check "catalog") (Checker_corpus.catalog ());
  List.iter (check "hand-written") (hand_written ());
  List.iter
    (fun (what, config) -> List.iter (check what) (Checker_corpus.sample ?config 500))
    [ ("default", None); ("small", Some small_config); ("four-thread", Some four_threads) ]

(* -------- journaled generated-sweep resume parity -------- *)

let test_resume_parity () =
  let dir = tmpdir "risotto-gensweep" in
  let j1 = Filename.concat dir "full.journal" in
  let j2 = Filename.concat dir "resumed.journal" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ j1; j2 ];
  let _, entries = Sweep.generated_entries ~seed:11 120 in
  let reference =
    Sweep.run_generated ~shard_size:32 ~journal:j1 entries
  in
  (* Interrupted run: only the first scheme's cells complete... *)
  let partial_entries = [ List.hd entries ] in
  let _ =
    Sweep.run_generated ~shard_size:32 ~journal:j2 partial_entries
  in
  (* ...then the resumed run replays them and computes the rest. *)
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

(* -------- planner vs per-cell checking -------- *)

let cells_of (entries : Sweep.entry list) named =
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
        (named e))
    entries

(* The per-cell production primitive: the planner's reference. *)
let per_cell cells =
  List.map
    (fun (c : Check.cell) ->
      let r =
        Check.refines ~src_model:c.cell_src_model ~tgt_model:c.cell_tgt_model
          ~src:c.cell_src ~tgt:(c.cell_f c.cell_src)
      in
      { r with Check.name = c.cell_scheme ^ ": " ^ c.cell_program })
    cells

(* [f ()] and the enumeration passes it made. *)
let counting_passes f =
  En.clear_caches ();
  let r = f () in
  (r, snd (En.cache_stats ()))

(* The planner's point: one pass per distinct source serves every
   target that zips with it, where per-cell checking makes two passes
   per cell. *)
let check_fewer_passes ~planned ~per_cell =
  Alcotest.(check bool)
    (Printf.sprintf "planned %d passes < per-cell %d" planned per_cell)
    true (planned < per_cell)

(* The eleven mapping schemes of the sweep behind the witness report
   over every x86 program of the catalog. *)
let test_mapping_sweep () =
  let named = List.map (fun (p : Ast.prog) -> (p.name, p)) (Checker_corpus.x86_catalog ()) in
  let cells = cells_of (Sweep.mapping_entries ()) (fun _ -> named) in
  let reference, per_cell = counting_passes (fun () -> per_cell cells) in
  let planned_cells, planned = counting_passes (fun () -> Check.check_cells cells) in
  Alcotest.(check bool) "planner matches per-cell reference" true (planned_cells = reference);
  check_fewer_passes ~planned ~per_cell

(* -------- pool vs sequential identity on a seeded batch -------- *)

let test_pool_identity () =
  let corpus, entries =
    Sweep.generated_entries ~seed:Checker_corpus.seed (Checker_corpus.size 500)
  in
  let cells = cells_of entries (fun e -> e.corpus) in
  let reference, per_cell = counting_passes (fun () -> per_cell cells) in
  let planned_seq, planned = counting_passes (fun () -> Check.check_cells cells) in
  let planned_pool = P.with_pool ~jobs:4 (fun pool -> Check.check_cells ~pool cells) in
  Alcotest.(check bool)
    "planner (sequential) matches per-cell reference" true
    (planned_seq = reference);
  Alcotest.(check bool)
    "planner (pool) matches per-cell reference" true
    (planned_pool = reference);
  Alcotest.(check bool) "the sound schemes refine every class" true
    (List.for_all (fun (r : Check.report) -> r.ok) reference);
  let dedup = G.dedup_ratio corpus in
  Alcotest.(check bool) (Printf.sprintf "dedup ratio %.3f in [0, 1)" dedup) true
    (corpus.classes <> [] && 0. <= dedup && dedup < 1.);
  check_fewer_passes ~planned ~per_cell;
  (* A target that does not zip takes a pass of its own. *)
  let sources = List.length corpus.classes in
  let refused =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (c : Check.cell) ->
              let tgt = c.cell_f c.cell_src in
              if En.zips c.cell_src tgt then None else Some tgt)
            cells))
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared enumeration (%d passes for %d sources, %d refused images)" planned
       sources refused)
    true
    (planned <= sources + refused)

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
  let par, chunks =
    P.with_pool ~jobs:3 ~force_spawn:true (fun pool ->
        let par =
          Check.check_scheme ~pool ~name:e.scheme e.f ~src_model:e.src_model
            ~tgt_model:e.tgt_model named
        in
        (par, P.batch_stats pool))
  in
  Alcotest.(check bool) "cross-domain planner parity" true (seq = par);
  (* The batch's chunk accounting covers at most one job per cell. *)
  let covered = List.fold_left (fun n (c : P.chunk_stat) -> n + c.c_len) 0 chunks in
  Alcotest.(check bool)
    (Printf.sprintf "%d chunks cover %d of %d cells" (List.length chunks) covered
       (List.length named))
    true
    (chunks <> [] && covered <= List.length named)

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
          ignore
            (Sweep.run_generated ~capture:true ~coverage:(Report.Coverage.create ()) ~pool
               ~shard_size ~probe_targets:true ~journal entries);
          Alcotest.(check bool)
            (Printf.sprintf "shards of %d: journal bytes == per-record writer" shard_size)
            true
            (read_file journal = ref_bytes))
        [ 1; 7; 500 ])

let () =
  Alcotest.run ~argv:Checker_corpus.argv "generate"
    [
      ( "generator",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "canonicalization soundness" `Quick
            test_canonical_soundness;
        ] );
      ( "canonical",
        [
          Alcotest.test_case
            (Printf.sprintf "canonical form = reference (catalog, hand-written, %d x 3 configs)"
               (Checker_corpus.size 500))
            `Quick test_canonical_reference;
        ] );
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
          Alcotest.test_case "mapping sweep: planned = per-cell, fewer passes" `Quick
            test_mapping_sweep;
        ] );
      ( "pool",
        [
          Alcotest.test_case
            (Printf.sprintf "%d-program pool identity" (Checker_corpus.size 500))
            `Quick test_pool_identity;
          Alcotest.test_case "force-spawn cross-domain parity" `Quick
            test_force_spawn_identity;
        ] );
    ]
