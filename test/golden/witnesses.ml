(* Golden check of the checker's diagnostics on the catalog sweep that
   [litmus_run --report] runs: every captured witness as the JSON
   artifact the report writes (violated axioms, cycles, nearest
   behaviour, shrunk size), then the axiom-coverage matrix, one cell per
   line.  Any change to an axiom's name, its witness cycle or the
   probe's discriminating-axiom counts changes a line. *)

module Sw = Report.Sweep

let () =
  let coverage = Report.Coverage.create () in
  let g =
    Sw.run_generated ~capture:true ~coverage ~shard_size:1 ~probe_targets:false
      (Sw.default_entries ())
  in
  List.iter
    (fun (c : Sw.cell) ->
      List.iteri
        (fun i w ->
          Printf.printf "== %s %s %d\n%s\n" c.scheme c.program (i + 1)
            (Report.Json.to_string (Sw.witness_json c w)))
        c.witnesses)
    g.gen_journaled.cells;
  print_endline "== coverage";
  List.iter
    (fun ((k : Report.Coverage.key), n) ->
      Printf.printf "%s | %s | %s | %s | %d\n" k.scheme k.program k.model k.axiom n)
    (Report.Coverage.counts coverage)
