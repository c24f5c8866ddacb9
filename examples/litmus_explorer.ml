(* Litmus explorer: enumerate the behaviours of a litmus test under a
   memory model, herd-style.

     dune exec examples/litmus_explorer.exe -- --list
     dune exec examples/litmus_explorer.exe -- MP --model arm
     dune exec examples/litmus_explorer.exe -- SBAL --model arm-orig --exec
     dune exec examples/litmus_explorer.exe -- --file litmus/MPQ-qemu.litmus *)

open Cmdliner

let models = Axiom.Models.by_name

(* Named programs: the mapping corpus plus the paper's target-side
   programs. *)
let programs =
  Litmus.Catalog.mapping_corpus
  @ [
      ("MPQ-qemu-arm", Litmus.Catalog.mpq_qemu_arm);
      ("SBQ-qemu-arm", Litmus.Catalog.sbq_qemu_arm);
      ("SBAL-armcats", Litmus.Catalog.sbal_armcats_arm);
      ("FMR-src", Litmus.Catalog.fmr_tcg_src);
      ("FMR-tgt", Litmus.Catalog.fmr_tcg_tgt);
      ("Fig9-left", Litmus.Catalog.fig9_left_tcg);
      ("Fig9-right", Litmus.Catalog.fig9_right_tcg);
    ]

let list_tests () =
  Format.printf "Available tests:@.";
  List.iter (fun (name, _) -> Format.printf "  %s@." name) programs;
  Format.printf "Available models: %s@."
    (String.concat ", " (List.map fst models))

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let explore name file model_name show_execs why =
  let prog, expectation =
    match file with
    | Some path -> (
        let src = read_file path in
        match Litmus.Parser.parse src with
        | { Litmus.Ast.prog; expect } ->
            Format.printf "expectation in file: %a@." Litmus.Ast.pp_expectation
              expect;
            (Some prog, Some expect)
        | exception Litmus.Parser.Error { line; msg } ->
            Format.eprintf "%s:%d: %s@." path line msg;
            exit 1)
    | None -> (List.assoc_opt name programs, None)
  in
  match (prog, List.assoc_opt model_name models) with
  | None, _ ->
      Format.eprintf "unknown test %S (try --list)@." name;
      exit 1
  | _, None ->
      Format.eprintf "unknown model %S (try --list)@." model_name;
      exit 1
  | Some prog, Some model ->
      Format.printf "%a@." Litmus.Ast.pp_prog prog;
      let candidates = Litmus.Enumerate.candidates prog in
      let behaviours = Litmus.Enumerate.behaviours model prog in
      Format.printf "model %s: %d candidate executions, %d consistent behaviours:@."
        model.Axiom.Model.name (List.length candidates)
        (List.length behaviours);
      List.iter
        (fun b -> Format.printf "  %a@." Litmus.Enumerate.pp_behaviour b)
        behaviours;
      if show_execs then begin
        Format.printf "@.consistent executions:@.";
        List.iteri
          (fun i x ->
            Format.printf "@.-- execution %d --@.%a@." i Axiom.Execution.pp x)
          (Litmus.Enumerate.executions model prog)
      end;
      (* Why is the expectation's outcome (not) possible? *)
      (if why then
         match expectation with
         | Some (Litmus.Ast.Forbidden cond | Litmus.Ast.Allowed cond) ->
             Format.printf
               "@.executions whose behaviour matches the condition:@.";
             let shown = ref 0 in
             List.iter
               (fun (x, regs) ->
                 let b =
                   {
                     Litmus.Enumerate.mem = Axiom.Execution.behaviour x;
                     regs;
                   }
                 in
                 if Litmus.Enumerate.eval_cond cond b && !shown < 4 then begin
                   incr shown;
                   Format.printf "@[<v 2>  %a: %a@]@."
                     Litmus.Enumerate.pp_behaviour b
                     (Axiom.Explain.pp_verdict x)
                     (Axiom.Explain.check model x)
                 end)
               candidates
         | None ->
             Format.printf "@.--why needs a test file with an expectation@.");
      (* Compare against all models for quick contrast. *)
      Format.printf "@.%-10s %s@." "model" "behaviours";
      List.iter
        (fun (mname, m) ->
          Format.printf "%-10s %d@." mname
            (List.length (Litmus.Enumerate.behaviours m prog)))
        models

let name_arg =
  Arg.(value & pos 0 string "MP" & info [] ~docv:"TEST" ~doc:"Litmus test name.")

let model_arg =
  Arg.(
    value & opt string "arm"
    & info [ "m"; "model" ] ~docv:"MODEL"
        ~doc:"Memory model: sc, x86, arm, arm-orig or tcg.")

let exec_arg =
  Arg.(value & flag & info [ "exec" ] ~doc:"Print the consistent executions.")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List available tests and models.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Parse the litmus test from $(docv) instead of the catalog.")

let why_arg =
  Arg.(
    value & flag
    & info [ "why" ]
        ~doc:
          "For a test file with an expectation, explain which axiom forbids \
           (or fails to forbid) each matching execution.")

let cmd =
  let run name file model exec list why =
    if list then list_tests () else explore name file model exec why
  in
  Cmd.v
    (Cmd.info "litmus_explorer"
       ~doc:"Enumerate litmus test behaviours under axiomatic memory models")
    Term.(
      const run $ name_arg $ file_arg $ model_arg $ exec_arg $ list_arg
      $ why_arg)

let () = exit (Cmd.eval cmd)
