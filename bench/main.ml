(* Reproduces the paper's evidence: every table and figure of the
   evaluation (§7), the §3 correctness findings, the Figure 8/9
   minimality results and the DESIGN.md ablations.  Performance is
   measured by perf/, not here.

   Usage: main.exe [SECTION...] [-j N]

   Sections (default: all): fig2/fig3/fig7 (mapping tables), sec3,
   fig8/fig9 (minimality), fig12..fig15 (figures), ablations.  [-j N]
   runs the figures' configurations on an N-domain pool. *)

let ppf = Format.std_formatter

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

let minimality () =
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
        Mapping.Minimality.necessary_fences base ~src_model:x86
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
(* Section dispatch                                                    *)

let canonical = function
  | "fig1" | "fig2" | "fig3" | "fig7" | "tables" -> Some "tables"
  | "sec3" | "correctness" -> Some "sec3"
  | "fig8" | "fig9" | "minimality" -> Some "minimality"
  | "fig12" | "fig13" | "fig14" | "fig15" | "figures" -> Some "figures"
  | "ablations" -> Some "ablations"
  | _ -> None

let all_sections = [ "tables"; "sec3"; "minimality"; "figures"; "ablations" ]

let usage () =
  Format.eprintf
    "usage: main.exe [SECTION...] [-j N]@.sections: fig2 fig3 fig7 sec3 fig8 \
     fig9 fig12..fig15 ablations@.";
  exit 1

(* The requested sections (canonical names, in request order, all by
   default) and the pool size. *)
let parse_args () =
  let sections = ref [] in
  let jobs = ref (Domain.recommended_domain_count ()) in
  let rec go = function
    | [] -> ()
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n > 0 -> jobs := n
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
  ((match List.rev !sections with [] -> all_sections | chosen -> chosen), !jobs)

let () =
  let sections, jobs = parse_args () in
  let pool = if jobs > 1 then Some (Parallel.Pool.create ~jobs ()) else None in
  List.iter
    (function
      | "tables" -> mapping_tables ()
      | "sec3" -> correctness_findings ()
      | "minimality" -> minimality ()
      | "figures" -> figures ?pool ()
      | "ablations" -> ablations ()
      | _ -> assert false)
    sections;
  (match pool with Some p -> Parallel.Pool.shutdown p | None -> ());
  Format.printf "@.done.@."
