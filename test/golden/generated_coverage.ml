(* Golden check of a seeded generated sweep's probed coverage: the
   default generated schemes over a 2000-program corpus (seed 42), with
   the coverage probe on both sides, as [litmus_run --generate 2000
   --seed 42 --report] runs it.  Printed: the verdict summary, then the
   rejection totals per (scheme, model, axiom) summed over the corpus.
   Any change to which candidates the pass enumerates, or to which axiom
   first rejects one, changes a line. *)

module Sw = Report.Sweep

let () =
  let corpus, entries = Sw.generated_entries ~seed:42 2000 in
  let coverage = Report.Coverage.create () in
  let g = Sw.run_generated ~capture:true ~coverage ~shard_size:500 ~probe_targets:true entries in
  let j = g.gen_journaled in
  let failing = Sw.failing j.cells in
  Printf.printf "programs: %d generated, %d classes\n"
    corpus.Litmus.Generate.requested
    (List.length corpus.Litmus.Generate.classes);
  Printf.printf "cells: %d, hold: %d, fail: %d, failures: %d\n" (List.length j.cells)
    (List.length j.cells - List.length failing)
    (List.length failing) (List.length j.failures);
  List.iter (fun (c : Sw.cell) -> Printf.printf "fails: %s %s\n" c.scheme c.program) failing;
  Printf.printf "saturated after: %s\n"
    (match g.gen_saturated_after with Some s -> string_of_int s | None -> "-");
  print_endline "== rejections";
  let totals = Hashtbl.create 32 in
  List.iter
    (fun ((k : Report.Coverage.key), n) ->
      let key = (k.scheme, k.model, k.axiom) in
      Hashtbl.replace totals key (n + Option.value ~default:0 (Hashtbl.find_opt totals key)))
    (Report.Coverage.counts coverage);
  List.iter
    (fun ((scheme, model, axiom), n) -> Printf.printf "%s | %s | %s | %d\n" scheme model axiom n)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) totals []))
