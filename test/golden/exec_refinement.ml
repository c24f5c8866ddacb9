(* Execution-level refinement (the shape of the paper's §5.4 proofs):
   for every cell of [Report.Sweep.mapping_entries] on the catalog
   mapping corpus whose target zips with its source, one pass over the
   source checks each candidate under the source model and its image
   under the target model.  Printed per cell: the target-consistent
   candidates, how many of them have a source-inconsistent source
   candidate, by the first source axiom it breaks, and the behaviour
   inclusion verdict. *)

module En = Litmus.Enumerate

let () =
  List.iter
    (fun (e : Report.Sweep.entry) ->
      List.iter
        (fun (program, src) ->
          let tgt = e.f src in
          Printf.printf "%s: %s" e.scheme program;
          if not (En.zips src tgt) then print_string "  (does not zip)\n"
          else begin
            (* Source verdicts by candidate number, then the image's. *)
            let src_verdict = Hashtbl.create 64 and consistent = ref 0 and broken = ref [] in
            En.fold ~probe:false src
              [ (src, [ e.src_model ]); (tgt, [ e.tgt_model ]) ]
              (fun () i k _ _ v ->
                if i = 0 then Hashtbl.replace src_verdict k v.(0)
                else if v.(0) < 0 then begin
                  incr consistent;
                  match Hashtbl.find src_verdict k with
                  | -1 -> ()
                  | j ->
                      let axiom = (List.nth e.src_model.axioms j).name in
                      let n = Option.value ~default:0 (List.assoc_opt axiom !broken) in
                      broken := (axiom, n + 1) :: List.remove_assoc axiom !broken
                end)
              ();
            let report = Mapping.Check.refines ~src_model:e.src_model ~tgt_model:e.tgt_model ~src ~tgt in
            Printf.printf "  target-consistent=%d source-inconsistent=%d%s  behaviours:%s\n" !consistent
              (List.fold_left (fun n (_, k) -> n + k) 0 !broken)
              (String.concat ""
                 (List.map (fun (a, n) -> Printf.sprintf " [%s]=%d" a n) (List.sort compare !broken)))
              (if report.ok then "included" else "NOT included")
          end)
        e.corpus)
    (Report.Sweep.mapping_entries ())
