(* gelf_tool: inspect and run guest binary images.

     dune exec bin/gelf_tool.exe -- demo /tmp/prog.gelf   # build a demo image
     dune exec bin/gelf_tool.exe -- dis /tmp/prog.gelf    # disassemble
     dune exec bin/gelf_tool.exe -- run /tmp/prog.gelf -c risotto *)

open Cmdliner
module I = X86.Insn
module R = X86.Reg

let configs = List.map (fun c -> (c.Core.Config.name, c)) Core.Config.all

let demo path =
  let open X86.Asm in
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RDI, 10L));
      Call_lbl "fact";
      Ins (I.Store (I.abs 0x5000L, I.R R.RAX));
      Ins (I.Mov_ri (R.RAX, 60L));
      Ins (I.Mov_ri (R.RDI, 0L));
      Ins I.Syscall;
      Label "fact";
      Ins (I.Mov_ri (R.RAX, 1L));
      Label "floop";
      Ins (I.Test (R.RDI, I.R R.RDI));
      Jcc_lbl (I.E, "fdone");
      Ins (I.Alu (I.Imul, R.RAX, I.R R.RDI));
      Ins (I.Dec R.RDI);
      Jmp_lbl "floop";
      Label "fdone";
      Ins I.Ret;
    ]
  in
  let image = Image.Gelf.build ~entry:"main" items in
  Image.Gelf.save image path;
  Format.printf "wrote %s (%d bytes of guest code)@." path
    (String.length image.Image.Gelf.text);
  0

let dis path =
  let image = Image.Gelf.load path in
  Format.printf "entry: 0x%Lx, text: %d bytes at 0x%Lx@." image.Image.Gelf.entry
    (String.length image.Image.Gelf.text)
    image.Image.Gelf.text_base;
  List.iter
    (fun (name, addr) -> Format.printf "symbol %-16s 0x%Lx@." name addr)
    (List.sort (fun (_, a) (_, b) -> compare a b) image.Image.Gelf.symbols);
  let len = String.length image.Image.Gelf.text in
  let rec go pc =
    if Int64.to_int (Int64.sub pc image.Image.Gelf.text_base) < len then begin
      let insn, ilen =
        X86.Decode.decode image.Image.Gelf.text ~pc
          ~base:image.Image.Gelf.text_base
      in
      Format.printf "%8Lx: %a@." pc I.pp insn;
      go (Int64.add pc (Int64.of_int ilen))
    end
  in
  go image.Image.Gelf.text_base;
  0

let run path config_name trace_out debug metrics inject report postmortem =
  if debug then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Core.Engine.log_src (Some Logs.Debug)
  end;
  if trace_out <> None then Obs.Trace.enable ();
  (* --report needs the metrics snapshot, so it implies the registry. *)
  if metrics || report <> None then Obs.Metrics.enable ();
  match List.assoc_opt config_name configs with
  | None ->
      Format.eprintf "unknown config %S (one of: %s)@." config_name
        (String.concat ", " (List.map fst configs));
      1
  | Some config -> (
      match Core.Inject.plan_of_string inject with
      | Error msg ->
          Format.eprintf "bad --inject plan: %s@." msg;
          1
      | Ok plan ->
          let config = { config with Core.Config.inject = plan } in
          let image = Image.Gelf.load path in
          let eng = Core.Engine.create config image in
          Core.Engine.set_postmortem_dir eng postmortem;
          let g = Core.Engine.run eng in
          let arm = g.Core.Engine.arm in
          if Buffer.length arm.Arm.Machine.output > 0 then
            print_string (Buffer.contents arm.Arm.Machine.output);
          let stats = Core.Engine.stats eng in
          (* [stats_line] reports every counter unconditionally —
             including interp-fallbacks=0 — so degraded runs can never
             be confused with runs that simply didn't report. *)
          Format.printf "[%s] exit=%Ld insns=%d fences=%d rax=%Ld %s@."
            config.Core.Config.name arm.Arm.Machine.exit_code
            arm.Arm.Machine.insns arm.Arm.Machine.fences
            (Core.Engine.reg g R.RAX)
            (Core.Engine.stats_line eng g);
          if stats.Core.Engine.interp_fallbacks > 0 then
            Format.printf "degraded: %d block(s) ran on the TCG interpreter@."
              stats.Core.Engine.interp_fallbacks;
          (match Core.Engine.trap g with
          | Some f ->
              Format.printf "guest trap: %s@." (Core.Fault.to_string f)
          | None -> ());
          if Core.Engine.postmortems_written eng > 0 then
            Format.printf "wrote %d postmortem(s) to %s@."
              (Core.Engine.postmortems_written eng)
              (Option.value ~default:"." postmortem);
          if metrics || report <> None then
            Core.Engine.publish_metrics eng;
          if metrics then begin
            Obs.Metrics.dump ();
            (match Core.Engine.hot_blocks eng with
            | [] -> ()
            | hot ->
                Format.printf
                  "hot blocks (by attributed cycles, then executions):@.";
                List.iter
                  (fun e -> Format.printf "  %a@." Obs.Profile.pp_entry e)
                  hot)
          end;
          (match report with
          | Some dir ->
              let html, _ =
                Report.Html.write ~dir
                  ~title:(Printf.sprintf "Risotto DBT run: %s" path)
                  ~metrics:(Obs.Metrics.snapshot ()) []
              in
              Format.printf "wrote %s to %s@." html dir
          | None -> ());
          (match trace_out with
          | Some out ->
              let n = Obs.Trace.write out in
              Format.printf "wrote %d trace event(s) to %s@." n out
          | None -> ());
          Int64.to_int arm.Arm.Machine.exit_code land 0xFF)

(* explain-fences: run the image, then attribute every fence the
   frontend ever emitted to its guest instruction, mapping rule and
   fate under the optimizer — the per-block view of the ledger whose
   aggregates feed the fence.<kind>.<outcome> metrics. *)
let explain_fences path config_name =
  match List.assoc_opt config_name configs with
  | None ->
      Format.eprintf "unknown config %S (one of: %s)@." config_name
        (String.concat ", " (List.map fst configs));
      1
  | Some config ->
      let image = Image.Gelf.load path in
      let eng = Core.Engine.create config image in
      let g = Core.Engine.run eng in
      (match Core.Engine.trap g with
      | Some f -> Format.printf "guest trap: %s@." (Core.Fault.to_string f)
      | None -> ());
      let ledgers = Core.Engine.fence_ledgers eng in
      let emitted = ref 0 and kept = ref 0 and merged = ref 0 in
      let dropped = ref 0 in
      List.iter
        (fun (pc, l) ->
          Format.printf "block 0x%Lx:@.%a" pc Tcg.Fence_ledger.pp l;
          emitted := !emitted + Tcg.Fence_ledger.count l "emitted";
          kept := !kept + Tcg.Fence_ledger.count l "kept";
          merged := !merged + Tcg.Fence_ledger.count l "merged";
          dropped := !dropped + Tcg.Fence_ledger.count l "dropped")
        ledgers;
      Format.printf
        "total: %d emitted, %d kept, %d merged away, %d dropped@." !emitted
        !kept !merged !dropped;
      if !emitted > 0 then
        Format.printf "fence.merged_ratio: %.3f@."
          (float_of_int (!merged + !dropped) /. float_of_int !emitted);
      0

(* verify: offline integrity check, dispatching on the file's magic —
   gelf images ("GELF*") and persistent translation caches ("RSTC*")
   share the subcommand because both are checksummed artifacts the DBT
   may load at startup. *)
let verify path =
  let magic =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          really_input_string ic (min 4 (in_channel_length ic)))
    with
    | s -> s
    | exception Sys_error msg ->
        Format.eprintf "%s: %s@." path msg;
        exit 1
  in
  if String.length magic >= 4 && String.sub magic 0 4 = "RSTC" then
    match Core.Engine.verify_cache path with
    | Ok (valid, []) ->
        Format.printf "%s: cache OK (%d entr%s)@." path valid
          (if valid = 1 then "y" else "ies");
        0
    | Ok (valid, bad) ->
        Format.printf "%s: cache DAMAGED (%d intact, %d corrupt)@." path
          valid (List.length bad);
        List.iter (fun msg -> Format.printf "  %s@." msg) bad;
        1
    | Error f ->
        Format.printf "%s: cache REJECTED (%s)@." path
          (Core.Fault.to_string f);
        1
  else
    match Image.Gelf.verify_file path with
    | Ok () ->
        Format.printf "%s: image OK@." path;
        0
    | Error msg ->
        Format.printf "%s: image REJECTED (%s)@." path msg;
        1

let asm src dst entry =
  let ic = open_in src in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match X86.Parse.parse text with
  | exception X86.Parse.Error { line; msg } ->
      Format.eprintf "%s:%d: %s@." src line msg;
      1
  | items ->
      let image = Image.Gelf.build ~entry items in
      Image.Gelf.save image dst;
      Format.printf "assembled %s -> %s (%d bytes, entry 0x%Lx)@." src dst
        (String.length image.Image.Gelf.text)
        image.Image.Gelf.entry;
      0

let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")

let config_arg =
  Arg.(
    value & opt string "risotto"
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:"DBT configuration: qemu, no-fences, tcg-ver or risotto.")

let src_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC")
let dst_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"DST")

let entry_arg =
  Arg.(
    value & opt string "main"
    & info [ "e"; "entry" ] ~docv:"LABEL" ~doc:"Entry label.")

let asm_cmd =
  Cmd.v (Cmd.info "asm" ~doc:"Assemble a text file into an image")
    Term.(const asm $ src_arg $ dst_arg $ entry_arg)

let demo_cmd = Cmd.v (Cmd.info "demo" ~doc:"Write a demo image") Term.(const demo $ path_arg)
let dis_cmd = Cmd.v (Cmd.info "dis" ~doc:"Disassemble an image") Term.(const dis $ path_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Checksum-verify a persisted artifact (gelf image or \
          translation cache) without loading it into an engine.  Exits \
          0 if intact, 1 with the per-entry damage report otherwise.")
    Term.(const verify $ path_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run and write it to $(docv) as \
           Chrome trace_event JSON (open in chrome://tracing or \
           Perfetto).")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ] ~doc:"Log every executed block to stderr.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the metrics registry for the run and print the merged \
           snapshot (counters, gauges, latency histograms) plus the \
           hottest translated blocks.")

let inject_arg =
  Arg.(
    value & opt string ""
    & info [ "inject" ] ~docv:"PLAN"
        ~doc:
          "Fault-injection plan: comma-separated $(b,always:SITE), \
           $(b,nth:SITE:N) or $(b,seeded:SITE:SEED:PERMILLE) rules with \
           SITE one of decode, compile, host-call, cache-read, \
           cache-write, pool-task, journal-write — e.g. \
           $(b,nth:compile:1,seeded:host-call:42:250).")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"DIR"
        ~doc:
          "Write a self-contained HTML run report (metrics snapshot) to \
           $(docv)/report.html.  Implies $(b,--metrics) collection.")

let postmortem_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem" ] ~docv:"DIR"
        ~doc:
          "On any guest trap or watchdog exhaustion, dump a \
           deterministic postmortem JSON (each thread's recent \
           flight-recorder events, block states, the trapping block's \
           fence ledger and a metrics slice) into \
           $(docv) as postmortem-NNN.json.  The flight recorder is \
           always on; this flag only enables writing the artifact.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run an image under the DBT")
    Term.(
      const run $ path_arg $ config_arg $ trace_arg $ debug_arg
      $ metrics_arg $ inject_arg $ report_arg $ postmortem_arg)

let explain_fences_cmd =
  Cmd.v
    (Cmd.info "explain-fences"
       ~doc:
         "Run an image and print each translated block's fence ledger: \
          every barrier the mapping emitted, attributed to its guest \
          instruction and rule, and what the optimizer did with it \
          (kept / merged / strengthened / dropped), plus the run-wide \
          merged ratio.")
    Term.(const explain_fences $ path_arg $ config_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "gelf_tool" ~doc:"Guest image tool")
          [ asm_cmd; demo_cmd; dis_cmd; run_cmd; verify_cmd;
            explain_fences_cmd ]))
