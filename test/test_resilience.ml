(* The crash-safety layer: frontier-journal recovery (torn tails, bit
   flips, interrupt-anywhere resume parity), supervised execution
   (retry / quarantine / deadline), per-entry cache quarantine, the
   checksummed gelf container, and the inject-plan codec roundtrip. *)

module Fr = Parallel.Frontier
module Sup = Parallel.Supervise
module Inj = Core.Inject
module Sweep = Report.Sweep
module R = X86.Reg

let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let check_string = Alcotest.check Alcotest.string

let tmp_path suffix =
  let p = Filename.temp_file "risotto_resilience" suffix in
  Sys.remove p;
  p

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let with_tmp suffix f =
  let p = tmp_path suffix in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists p then Sys.remove p)
    (fun () -> f p)

(* ------------------------------------------------------------------ *)
(* Frontier journal                                                    *)

let test_journal_roundtrip () =
  with_tmp ".jnl" @@ fun path ->
  let t, r0 = Fr.open_ path in
  check_int "fresh journal empty" 0 r0.Fr.valid;
  Fr.append t ~key:"a" ~value:"1";
  Fr.append t ~key:"b" ~value:"binary\x00\nvalue";
  Fr.append t ~key:"a" ~value:"2";
  Fr.close t;
  let r = Fr.recover_file path in
  check_int "all records recovered" 3 r.Fr.valid;
  check_int "no bytes dropped" 0 r.Fr.dropped_bytes;
  check_bool "append order with duplicates" true
    (r.Fr.entries = [ ("a", "1"); ("b", "binary\x00\nvalue"); ("a", "2") ])

let test_journal_truncated_tail () =
  with_tmp ".jnl" @@ fun path ->
  let t, _ = Fr.open_ path in
  Fr.append t ~key:"a" ~value:"1";
  Fr.append t ~key:"b" ~value:"2";
  Fr.close t;
  let s = read_file path in
  (* Cut into the last record's payload: the torn record must be
     dropped, the prefix kept, and the file truncated back. *)
  write_file path (String.sub s 0 (String.length s - 2));
  let t, r = Fr.open_ path in
  check_int "prefix recovered" 1 r.Fr.valid;
  check_bool "torn tail measured" true (r.Fr.dropped_bytes > 0);
  check_bool "only the intact record" true (r.Fr.entries = [ ("a", "1") ]);
  (* The journal must be appendable again after truncation. *)
  Fr.append t ~key:"c" ~value:"3";
  Fr.close t;
  let r = Fr.recover_file path in
  check_bool "append after recovery" true
    (r.Fr.entries = [ ("a", "1"); ("c", "3") ])

let test_journal_bitflip () =
  with_tmp ".jnl" @@ fun path ->
  let t, _ = Fr.open_ path in
  Fr.append t ~key:"a" ~value:"first";
  Fr.append t ~key:"b" ~value:"second";
  Fr.close t;
  let s = read_file path in
  (* Flip a bit inside the second record's payload: its CRC fails, the
     valid prefix ends at the first record. *)
  let b = Bytes.of_string s in
  let at = Bytes.length b - 3 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x40));
  write_file path (Bytes.to_string b);
  let r = Fr.recover_file path in
  check_int "prefix survives the flip" 1 r.Fr.valid;
  check_bool "flipped record dropped" true (r.Fr.entries = [ ("a", "first") ])

let test_journal_checkpoint () =
  with_tmp ".jnl" @@ fun path ->
  let t, _ = Fr.open_ path in
  Fr.append t ~key:"a" ~value:"stale";
  Fr.append t ~key:"b" ~value:"2";
  Fr.append t ~key:"a" ~value:"fresh";
  Fr.checkpoint t [ ("a", "stale"); ("b", "2"); ("a", "fresh") ];
  Fr.append t ~key:"c" ~value:"3";
  Fr.close t;
  let r = Fr.recover_file path in
  (* Duplicates compact last-wins, keys keep first-seen order, and the
     journal stays appendable after the atomic rewrite. *)
  check_bool "compacted last-wins + post-checkpoint append" true
    (r.Fr.entries = [ ("a", "fresh"); ("b", "2"); ("c", "3") ])

let test_journal_chaos_tear () =
  with_tmp ".jnl" @@ fun path ->
  let fired = ref false in
  let chaos () =
    if !fired then false
    else begin
      fired := true;
      true
    end
  in
  let t, _ = Fr.open_ ~chaos path in
  (match Fr.append t ~key:"a" ~value:"torn" with
  | () -> Alcotest.fail "append should tear"
  | exception Fr.Injected_fault _ -> ());
  Fr.close t;
  let r = Fr.recover_file path in
  check_int "torn record not recovered" 0 r.Fr.valid;
  check_bool "torn bytes on disk" true (r.Fr.dropped_bytes > 0)

(* QCheck: interrupt the journal after any record K, resume, and the
   recovered prefix is exactly the first K appends. *)
let qcheck_interrupt_resume =
  QCheck.Test.make ~count:30 ~name:"journal interrupted at K resumes exactly"
    QCheck.(pair (int_range 0 12) (small_list small_string))
    (fun (k, extra) ->
      let path = tmp_path ".jnl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let records =
            List.mapi
              (fun i v -> (Printf.sprintf "k%d" i, v))
              (extra @ [ "last" ])
          in
          let t, _ = Fr.open_ path in
          List.iter (fun (k, v) -> Fr.append t ~key:k ~value:v) records;
          Fr.close t;
          (* "Crash" by keeping an arbitrary byte prefix that covers
             exactly the first [k] records plus part of the next. *)
          let s = read_file path in
          let keep =
            let full = Fr.recover_file path in
            ignore full;
            min (String.length s)
              (String.length s - (k mod (String.length s + 1)))
          in
          write_file path (String.sub s 0 keep);
          let r = Fr.recover_file path in
          (* Whatever the cut, the recovered entries must be a prefix of
             the appended records — never reordered, invented or
             duplicated. *)
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
            | _ :: _, [] -> false
          in
          is_prefix r.Fr.entries records))

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)

let test_supervise_default_transparent () =
  (match Sup.run Sup.default (fun () -> 41 + 1) with
  | Ok v -> check_int "plain result" 42 v
  | Error _ -> Alcotest.fail "default policy cannot fail a pure task");
  Sup.poll () (* unsupervised poll is a no-op *)

let test_supervise_retry_then_success () =
  let attempts = ref 0 in
  let policy = { Sup.default with retries = 3; backoff_s = 0. } in
  match
    Sup.run policy (fun () ->
        incr attempts;
        if !attempts < 3 then failwith "transient";
        "done")
  with
  | Ok v ->
      check_string "succeeded after retries" "done" v;
      check_int "two failures then success" 3 !attempts
  | Error _ -> Alcotest.fail "should succeed within the retry budget"

let test_supervise_quarantine () =
  let attempts = ref 0 in
  let policy = { Sup.default with retries = 2; backoff_s = 0. } in
  match
    Sup.run policy (fun () ->
        incr attempts;
        failwith "poison")
  with
  | Ok _ -> Alcotest.fail "poison task cannot succeed"
  | Error (Sup.Quarantined { attempts = a; last }) ->
      check_int "1 + retries attempts" 3 a;
      check_int "attempts counted" 3 !attempts;
      check_bool "fault preserved" true
        (match last.Parallel.Pool.exn with Failure _ -> true | _ -> false)
  | Error (Sup.Timed_out _) -> Alcotest.fail "no deadline was set"

let test_supervise_timeout () =
  let policy =
    { Sup.default with deadline_s = Some 1e-6; retries = 5; backoff_s = 0. }
  in
  match
    Sup.run policy (fun () ->
        (* Poll well past the 32-poll clock stride. *)
        for _ = 1 to 10_000 do
          Sup.poll ()
        done)
  with
  | Ok () -> Alcotest.fail "must hit the deadline"
  | Error (Sup.Timed_out { attempts; deadline_s }) ->
      (* Timeouts are terminal: deterministic work would just time out
         again, so the retry budget must not be spent. *)
      check_int "no retries burned on timeout" 1 attempts;
      check_bool "deadline reported" true (deadline_s = 1e-6)
  | Error (Sup.Quarantined _) -> Alcotest.fail "timeout must stay typed"

let test_supervise_injected_retried () =
  let n = ref 0 in
  let chaos () =
    incr n;
    !n = 1
  in
  let policy = { Sup.default with retries = 1; backoff_s = 0.; chaos = Some chaos } in
  match Sup.run policy (fun () -> "ok") with
  | Ok v -> check_string "transient injection retried" "ok" v
  | Error _ -> Alcotest.fail "one injection within one retry must recover"

(* ------------------------------------------------------------------ *)
(* Inject plan codec                                                   *)

let site_gen = QCheck.Gen.oneofl Inj.all_sites

let rule_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun s n -> Inj.Nth (s, n)) site_gen (int_range 1 1000);
        map (fun s -> Inj.Always s) site_gen;
        map3
          (fun site seed permille -> Inj.Seeded { site; seed; permille })
          site_gen
          (map Int64.of_int (int_range 0 1_000_000))
          (int_range 0 1000);
      ])

let plan_arb =
  QCheck.make
    ~print:(fun p -> Inj.plan_to_string p)
    QCheck.Gen.(list_size (int_range 0 8) rule_gen)

let qcheck_plan_roundtrip =
  QCheck.Test.make ~count:200 ~name:"inject plan pp/parse roundtrip" plan_arb
    (fun plan ->
      match Inj.plan_of_string (Inj.plan_to_string plan) with
      | Ok p -> p = plan
      | Error _ -> false)

let test_plan_permille_range () =
  (match Inj.plan_of_string "seeded:decode:7:1001" with
  | Ok _ -> Alcotest.fail "permille 1001 must be rejected"
  | Error msg ->
      check_bool "error names the permille" true
        (let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         has "permille" && has "1001"));
  match Inj.plan_of_string "seeded:decode:7:-1" with
  | Ok _ -> Alcotest.fail "negative permille must be rejected"
  | Error _ -> ()

let test_plan_site_spellings () =
  (* The parser accepts both '-' and '_' site spellings; the printer
     emits '-'. *)
  match Inj.plan_of_string "always:journal_write,nth:pool-task:2" with
  | Ok [ Inj.Always Inj.Journal_write; Inj.Nth (Inj.Pool_task, 2) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Cache quarantine                                                    *)

let with_cache f =
  let image = Dbt_corpus.(build countdown_5) in
  let eng = Core.Engine.create Core.Config.risotto image in
  ignore (Core.Engine.run eng);
  with_tmp ".tc" @@ fun path ->
  let saved = Core.Engine.save_cache eng path in
  f ~image ~path ~saved

let test_cache_entry_quarantine () =
  with_cache @@ fun ~image ~path ~saved ->
  check_bool "cache has entries" true (saved > 0);
  (* Flip one bit in the last entry's body: exactly that entry must be
     quarantined, the rest must load, and the rerun must be correct. *)
  let s = read_file path in
  let b = Bytes.of_string s in
  let at = Bytes.length b - 1 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  write_file path (Bytes.to_string b);
  let eng = Core.Engine.create Core.Config.risotto image in
  (match Core.Engine.load_cache eng path with
  | Ok n -> check_int "one entry dropped" (saved - 1) n
  | Error f -> Alcotest.failf "load must survive: %s" (Core.Fault.to_string f));
  check_int "quarantine counted" 1
    (Core.Engine.stats eng).Core.Engine.cache_quarantined;
  let g = Core.Engine.run eng in
  check_bool "dropped block retranslated" true
    ((Core.Engine.stats eng).Core.Engine.blocks_translated > 0);
  Alcotest.check Alcotest.int64 "correct result after quarantine" 77L
    (Core.Engine.reg g R.R13)

let test_cache_verify () =
  with_cache @@ fun ~image:_ ~path ~saved ->
  (match Core.Engine.verify_cache path with
  | Ok (n, []) -> check_int "all entries verify" saved n
  | Ok (_, bad) ->
      Alcotest.failf "unexpected damage: %s" (String.concat "; " bad)
  | Error f -> Alcotest.failf "verify failed: %s" (Core.Fault.to_string f));
  let s = read_file path in
  let b = Bytes.of_string s in
  let at = Bytes.length b - 1 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  write_file path (Bytes.to_string b);
  (match Core.Engine.verify_cache path with
  | Ok (n, bad) ->
      check_int "intact entries still verify" (saved - 1) n;
      check_int "one corrupt entry reported" 1 (List.length bad)
  | Error f -> Alcotest.failf "verify must survive: %s" (Core.Fault.to_string f));
  (* Structural damage (truncation) stays a whole-file error. *)
  write_file path (String.sub s 0 (String.length s - 3));
  match Core.Engine.verify_cache path with
  | Ok _ -> Alcotest.fail "truncation must reject the file"
  | Error _ -> ()

let test_cache_write_injection () =
  let image = Dbt_corpus.(build countdown_5) in
  let config =
    {
      Core.Config.risotto with
      Core.Config.inject = [ Inj.Nth (Inj.Cache_write, 1) ];
    }
  in
  let eng = Core.Engine.create config image in
  ignore (Core.Engine.run eng);
  with_tmp ".tc" @@ fun path ->
  (match Core.Engine.save_cache eng path with
  | _ -> Alcotest.fail "first save must be injected"
  | exception Core.Fault.Fault f ->
      check_bool "typed cache fault" true (f.Core.Fault.kind = Core.Fault.Cache_corrupt));
  check_bool "no file under the real name" false (Sys.file_exists path);
  (* The injected crash sits between tmp write and rename: a retried
     save (rule spent) must land a fully valid file. *)
  let saved = Core.Engine.save_cache eng path in
  match Core.Engine.verify_cache path with
  | Ok (n, []) -> check_int "second save intact" saved n
  | _ -> Alcotest.fail "second save must verify"

(* ------------------------------------------------------------------ *)
(* Gelf container                                                      *)

let test_gelf_v2_roundtrip () =
  let image = Dbt_corpus.(build countdown_5) in
  with_tmp ".gelf" @@ fun path ->
  Image.Gelf.save image path;
  check_bool "verify accepts" true (Image.Gelf.verify_file path = Ok ());
  let loaded = Image.Gelf.load path in
  check_bool "roundtrip" true (loaded = image)

let test_gelf_v2_corrupt () =
  let image = Dbt_corpus.(build countdown_5) in
  with_tmp ".gelf" @@ fun path ->
  Image.Gelf.save image path;
  let s = read_file path in
  let b = Bytes.of_string s in
  let at = Bytes.length b / 2 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
  write_file path (Bytes.to_string b);
  (match Image.Gelf.verify_file path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flipped bit must fail verification");
  match Image.Gelf.load path with
  | _ -> Alcotest.fail "load must reject a corrupt image"
  | exception Image.Gelf.Bad_image _ -> ()

let test_gelf_v1_legacy_load () =
  let image = Dbt_corpus.(build countdown_5) in
  with_tmp ".gelf" @@ fun path ->
  Image.Gelf.save image path;
  let s = read_file path in
  (* Rewrite as a v1 file: v1 magic, no checksum field. *)
  let body = String.sub s 14 (String.length s - 14) in
  write_file path ("GELF1\n" ^ body);
  let loaded = Image.Gelf.load path in
  check_bool "legacy image still loads" true (loaded = image)

let test_gelf_on_commit_crash () =
  let image = Dbt_corpus.(build countdown_5) in
  with_tmp ".gelf" @@ fun path ->
  Image.Gelf.save image path;
  let before = read_file path in
  (* A crash between tmp write and rename must leave the previous image
     untouched. *)
  (match
     Image.Gelf.save
       ~on_commit:(fun () -> failwith "injected crash")
       image path
   with
  | () -> Alcotest.fail "on_commit must propagate"
  | exception Failure _ -> ());
  check_bool "previous image intact" true (read_file path = before)

(* ------------------------------------------------------------------ *)
(* Journaled sweep: opt-in parity and resume                           *)

let small_entries () =
  List.filter
    (fun (e : Sweep.entry) -> e.Sweep.scheme = "transform-raw")
    (Sweep.default_entries ())

let cell_sig (c : Sweep.cell) =
  ( c.Sweep.scheme,
    c.Sweep.program,
    c.Sweep.report.Mapping.Check.ok,
    c.Sweep.report.Mapping.Check.src_behaviours,
    c.Sweep.report.Mapping.Check.tgt_behaviours,
    c.Sweep.report.Mapping.Check.extra,
    List.length c.Sweep.witnesses )

let test_journaled_parity_and_resume () =
  let entries = small_entries () in
  let sweep ?journal () =
    (Sweep.run_generated ~capture:true ?journal entries).Sweep.gen_journaled
  in
  let plain = (sweep ()).Sweep.cells in
  check_bool "shard_size 0 runs as 1" true
    (List.map cell_sig
       (Sweep.run_generated ~capture:true ~shard_size:0 entries)
         .Sweep.gen_journaled.Sweep.cells
    = List.map cell_sig plain);
  with_tmp ".jnl" @@ fun journal ->
  let r1 = sweep ~journal () in
  check_int "all computed" (List.length plain) r1.Sweep.computed;
  check_int "nothing replayed" 0 r1.Sweep.replayed;
  check_bool "journaled == plain (opt-in parity)" true
    (List.map cell_sig r1.Sweep.cells = List.map cell_sig plain);
  let r2 = sweep ~journal () in
  check_int "all replayed" (List.length plain) r2.Sweep.replayed;
  check_int "nothing recomputed" 0 r2.Sweep.computed;
  check_bool "resume == plain (verdicts, extras, witnesses)" true
    (List.map cell_sig r2.Sweep.cells = List.map cell_sig plain)

let test_journaled_coverage_replay () =
  let entries = small_entries () in
  let cov_plain = Report.Coverage.create () in
  ignore (Sweep.run_generated ~coverage:cov_plain entries);
  with_tmp ".jnl" @@ fun journal ->
  let cov1 = Report.Coverage.create () in
  ignore (Sweep.run_generated ~coverage:cov1 ~journal entries);
  let cov2 = Report.Coverage.create () in
  ignore (Sweep.run_generated ~coverage:cov2 ~journal entries);
  let strip = List.map (fun (k, n) -> (k, n)) in
  check_bool "journaled coverage == plain" true
    (strip (Report.Coverage.counts cov1)
    = strip (Report.Coverage.counts cov_plain));
  check_bool "replayed coverage == plain (exactly once)" true
    (strip (Report.Coverage.counts cov2)
    = strip (Report.Coverage.counts cov_plain))

let test_torn_sweep_closes_journal () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () =
    Gc.full_major ();
    Array.length (Sys.readdir "/proc/self/fd")
  in
  with_tmp ".jnl" @@ fun journal ->
  let before = open_fds () in
  (match
     Sweep.run_generated ~journal_chaos:(fun () -> true) ~journal
       (small_entries ())
   with
  | _ -> Alcotest.fail "the chaos hook must tear the first append"
  | exception Fr.Injected_fault _ -> ());
  check_int "journal descriptor closed" before (open_fds ())

let test_generated_chaos_resume () =
  let _, entries = Sweep.generated_entries ~seed:11 40 in
  let sweep ?journal_chaos ?journal () =
    (Sweep.run_generated ~shard_size:8 ?journal_chaos ?journal entries)
      .Sweep.gen_journaled
  in
  let reference = (sweep ()).Sweep.cells in
  with_tmp ".jnl" @@ fun journal ->
  (* Tear the 12th append: the first shard is on disk, the second is
     cut off mid-journal. *)
  let appends = ref 0 in
  let journal_chaos () =
    incr appends;
    !appends = 12
  in
  (match sweep ~journal_chaos ~journal () with
  | _ -> Alcotest.fail "the chaos hook must tear the 12th append"
  | exception Fr.Injected_fault _ -> ());
  let resumed = sweep ~journal () in
  check_int "the 11 intact records replayed" 11 resumed.Sweep.replayed;
  check_bool "no failures on resume" true (resumed.Sweep.failures = []);
  check_bool "resume == uninterrupted run" true
    (List.map cell_sig resumed.Sweep.cells = List.map cell_sig reference);
  let keys = List.map fst (Fr.recover_file journal).Fr.entries in
  check_int "one record per cell" (List.length reference) (List.length keys);
  check_int "journal keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* A shard's records are written as one batch: a tear at any record of
   it, first, middle or last, keeps the records before it, and the
   resume recomputes the rest to the uninterrupted run's journal, byte
   for byte. *)
let test_batch_tear_resume () =
  let _, entries = Sweep.generated_entries ~seed:11 40 in
  let sweep ?journal_chaos journal =
    (Sweep.run_generated ~shard_size:16 ?journal_chaos ~journal entries)
      .Sweep.gen_journaled
  in
  let reference =
    with_tmp ".jnl" @@ fun journal ->
    ignore (sweep journal);
    read_file journal
  in
  List.iter
    (fun k ->
      with_tmp ".jnl" @@ fun journal ->
      let appends = ref 0 in
      let journal_chaos () =
        incr appends;
        !appends = k
      in
      (match sweep ~journal_chaos journal with
      | _ -> Alcotest.failf "the chaos hook must tear append %d" k
      | exception Fr.Injected_fault _ -> ());
      let resumed = sweep journal in
      check_int (Printf.sprintf "tear at %d: intact records replayed" k) (k - 1)
        resumed.Sweep.replayed;
      check_bool (Printf.sprintf "tear at %d: resumed journal == uninterrupted" k) true
        (read_file journal = reference))
    [ 1; 16; 17; 23; 32 ]

(* Supervision wraps the planner's jobs, not cells.  With one shard per
   default generated scheme, every source program's job is needed by a
   cell in each of three shards. *)
let job_corpus () =
  let _, entries = Sweep.generated_entries ~seed:13 40 in
  (entries, List.length (List.hd entries).Sweep.corpus)

let cell_keys cells =
  List.sort compare
    (List.map
       (fun (c : Sweep.cell) -> Sweep.cell_key c.Sweep.scheme c.Sweep.program)
       cells)

(* One failure per failed cell, failed + completed = the whole table,
   and only completed cells journaled. *)
let check_failure_accounting ~total (r : Sweep.journaled) journal =
  let failed =
    List.map (fun (s, p, _) -> Sweep.cell_key s p) r.Sweep.failures
  in
  check_int "one failure per failed cell" (List.length failed)
    (List.length (List.sort_uniq compare failed));
  check_int "cells + failures = all cells" total
    (List.length r.Sweep.cells + List.length failed);
  check_bool "exactly the completed cells are journaled" true
    (List.sort compare (List.map fst (Fr.recover_file journal).Fr.entries)
    = cell_keys r.Sweep.cells)

let check_clean_resume ~reference ~shard_size journal entries =
  let r =
    (Sweep.run_generated ~shard_size ~journal entries).Sweep.gen_journaled
  in
  check_bool "clean resume has no failures" true (r.Sweep.failures = []);
  check_bool "clean resume == reference" true
    (List.map cell_sig r.Sweep.cells = List.map cell_sig reference);
  let keys = List.map fst (Fr.recover_file journal).Fr.entries in
  check_int "one record per cell" (List.length reference) (List.length keys);
  check_int "journal keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_job_deadline () =
  let entries, shard_size = job_corpus () in
  let reference =
    (Sweep.run_generated ~shard_size entries).Sweep.gen_journaled.Sweep.cells
  in
  with_tmp ".jnl" @@ fun journal ->
  let policy = { Sup.default with deadline_s = Some 1e-6 } in
  let g = Sweep.run_generated ~policy ~shard_size ~journal entries in
  let r = g.Sweep.gen_journaled in
  check_int "one shard per scheme" 3 (List.length g.Sweep.gen_shards);
  check_bool "timeouts fired" true (r.Sweep.failures <> []);
  check_bool "every failure is a typed timeout" true
    (List.for_all
       (function _, _, Sup.Timed_out _ -> true | _ -> false)
       r.Sweep.failures);
  (* A source job that timed out is retried, and times out again, in
     each later shard that needs it. *)
  let failed = List.map (fun (s, p, _) -> (s, p)) r.Sweep.failures in
  check_bool "some source's cells time out in all three shards" true
    (List.exists
       (fun (program, _) ->
         List.for_all
           (fun (e : Sweep.entry) -> List.mem (e.Sweep.scheme, program) failed)
           entries)
       (List.hd entries).Sweep.corpus);
  check_failure_accounting ~total:(List.length reference) r journal;
  check_clean_resume ~reference ~shard_size journal entries

let test_job_quarantine () =
  let entries, shard_size = job_corpus () in
  let reference =
    (Sweep.run_generated ~shard_size entries).Sweep.gen_journaled.Sweep.cells
  in
  with_tmp ".jnl" @@ fun journal ->
  let inject =
    match Inj.plan_of_string "always:pool-task" with
    | Ok p -> Inj.create p
    | Error msg -> failwith msg
  in
  let policy =
    {
      Sup.default with
      retries = 1;
      backoff_s = 0.;
      chaos = Some (Inj.fire_hook inject Inj.Pool_task);
    }
  in
  let r =
    (Sweep.run_generated ~policy ~shard_size ~journal entries)
      .Sweep.gen_journaled
  in
  check_int "no cell completes" 0 (List.length r.Sweep.cells);
  check_bool "every cell quarantined after its job's two attempts" true
    (List.for_all
       (function
         | _, _, Sup.Quarantined { attempts = 2; last } -> (
             match last.Parallel.Pool.exn with
             | Sup.Injected _ -> true
             | _ -> false)
         | _ -> false)
       r.Sweep.failures);
  check_failure_accounting ~total:(List.length reference) r journal;
  check_clean_resume ~reference ~shard_size journal entries

let () =
  Alcotest.run "resilience"
    [
      ( "journal",
        [
          Alcotest.test_case "append/recover roundtrip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "truncated tail recovery" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "bit flip drops only the tail" `Quick
            test_journal_bitflip;
          Alcotest.test_case "checkpoint compacts last-wins" `Quick
            test_journal_checkpoint;
          Alcotest.test_case "chaos tear is recoverable" `Quick
            test_journal_chaos_tear;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_interrupt_resume;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "default policy is transparent" `Quick
            test_supervise_default_transparent;
          Alcotest.test_case "transient fault retried" `Quick
            test_supervise_retry_then_success;
          Alcotest.test_case "poison task quarantined" `Quick
            test_supervise_quarantine;
          Alcotest.test_case "deadline fires as typed timeout" `Quick
            test_supervise_timeout;
          Alcotest.test_case "injected fault retried" `Quick
            test_supervise_injected_retried;
        ] );
      ( "inject",
        [
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_plan_roundtrip;
          Alcotest.test_case "permille range rejected with message" `Quick
            test_plan_permille_range;
          Alcotest.test_case "site spelling variants" `Quick
            test_plan_site_spellings;
        ] );
      ( "cache",
        [
          Alcotest.test_case "bit flip quarantines one entry" `Quick
            test_cache_entry_quarantine;
          Alcotest.test_case "verify_cache reports damage" `Quick
            test_cache_verify;
          Alcotest.test_case "cache-write injection pre-rename" `Quick
            test_cache_write_injection;
        ] );
      ( "gelf",
        [
          Alcotest.test_case "v2 roundtrip + verify" `Quick
            test_gelf_v2_roundtrip;
          Alcotest.test_case "v2 rejects corruption" `Quick
            test_gelf_v2_corrupt;
          Alcotest.test_case "v1 legacy load" `Quick test_gelf_v1_legacy_load;
          Alcotest.test_case "crash before rename keeps previous" `Quick
            test_gelf_on_commit_crash;
        ] );
      ( "journaled sweep",
        [
          Alcotest.test_case "job deadline: one timeout per cell" `Quick
            test_job_deadline;
          Alcotest.test_case "job chaos: quarantined per cell, resume"
            `Quick test_job_quarantine;
          Alcotest.test_case "opt-in parity and byte-level resume" `Quick
            test_journaled_parity_and_resume;
          Alcotest.test_case "coverage replays exactly once" `Quick
            test_journaled_coverage_replay;
          Alcotest.test_case "torn run closes the journal" `Quick
            test_torn_sweep_closes_journal;
          Alcotest.test_case "generated shards resume after a tear" `Quick
            test_generated_chaos_resume;
          Alcotest.test_case "a tear inside a shard's batch resumes" `Quick
            test_batch_tear_resume;
        ] );
    ]
