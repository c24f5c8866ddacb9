open Litmus.Ast
module E = Axiom.Event

type frontend = Qemu_frontend | Risotto_frontend | No_fences_frontend
type access = [ `Load | `Store | `Rmw | `Mfence ]
type side = [ `Pre | `Post ]

(* The access-class table (Figures 2 and 7a).  Every entry is a
   constant, so reading the table never allocates. *)
let fences frontend (side : side) (access : access) =
  match (frontend, access, side) with
  | Qemu_frontend, `Load, `Pre -> [ E.F_mr ]
  | Qemu_frontend, `Store, `Pre -> [ E.F_mw ]
  | Risotto_frontend, `Load, `Post -> [ E.F_rm ]
  | Risotto_frontend, `Store, `Pre -> [ E.F_ww ]
  | _, `Mfence, `Pre -> [ E.F_sc ]
  | _, (`Load | `Store | `Rmw | `Mfence), (`Pre | `Post) -> []

let rule_name (side : side) (access : access) =
  match (side, access) with
  | `Pre, `Load -> "pre-load"
  | `Post, `Load -> "post-load"
  | `Pre, `Store -> "pre-store"
  | `Post, `Store -> "post-store"
  | `Pre, `Rmw -> "pre-rmw"
  | `Post, `Rmw -> "post-rmw"
  | `Pre, `Mfence -> "pre-mfence"
  | `Post, `Mfence -> "post-mfence"

(* [access] with its table fences around it; [mid] is the TCG access
   itself ([[]] for MFENCE, which the fences replace). *)
let around frontend access mid =
  let fs side = List.map (fun f -> Fence f) (fences frontend side access) in
  fs `Pre @ mid @ fs `Post

let x86_to_tcg frontend p =
  let map_one i =
    match i with
    | If _ | Assign _ -> [ i ]
    | Load { reg; loc; _ } ->
        around frontend `Load [ Load { reg; loc; ord = E.R_plain } ]
    | Store { loc; value; _ } ->
        around frontend `Store [ Store { loc; value; ord = E.W_plain } ]
    | Cas c -> around frontend `Rmw [ Cas { c with kind = Rmw_tcg } ]
    | Fence E.F_mfence -> around frontend `Mfence []
    | Fence f -> [ Fence f ]
  in
  map_instrs map_one { p with name = p.name ^ "→tcg" }

type rmw_lowering = Helper_gcc9 | Helper_gcc10 | Risotto_rmw2 | Risotto_rmw1
type backend = { lowering : [ `Qemu | `Risotto ]; rmw : rmw_lowering }

(* Qemu keeps its own fence lowering even with fence generation off. *)
let lowering = function
  | Qemu_frontend | No_fences_frontend -> `Qemu
  | Risotto_frontend -> `Risotto

let backend frontend rmw = { lowering = lowering frontend; rmw }

let rmw_helper = function
  | Helper_gcc9 -> Some "gcc9"
  | Helper_gcc10 -> Some "gcc10"
  | Risotto_rmw2 | Risotto_rmw1 -> None

(* Figure 7b fence lowering, extended to the fences the Qemu frontend
   produces.  Qemu demotes the Fmr it inserts before loads to a DMBLD:
   this drops the (x86-unneeded) W→R component, mirroring Qemu's
   demotion of Fmr to Frr for TSO guests (§3.1). *)
let lower_fence lowering = function
  | E.F_rr | E.F_rw | E.F_rm -> Some E.F_dmb_ld
  | E.F_ww -> Some E.F_dmb_st
  | E.F_wr | E.F_wm | E.F_mm | E.F_sc -> Some E.F_dmb_full
  | E.F_mw -> Some E.F_dmb_full
  | E.F_mr -> (
      match lowering with `Qemu -> Some E.F_dmb_ld | `Risotto -> Some E.F_dmb_full)
  | E.F_acq | E.F_rel -> None
  | E.F_mfence -> Some E.F_dmb_full
  | (E.F_dmb_full | E.F_dmb_ld | E.F_dmb_st) as f -> Some f

let lower_rmw rmw ~reg ~loc ~expect ~desired =
  let cas kind = Cas { reg; loc; expect; desired; kind } in
  match rmw with
  | Helper_gcc9 -> [ cas (Rmw_arm { impl = Lxsx; acq = true; rel = true }) ]
  | Helper_gcc10 | Risotto_rmw1 ->
      [ cas (Rmw_arm { impl = Amo; acq = true; rel = true }) ]
  | Risotto_rmw2 ->
      [
        Fence E.F_dmb_full;
        cas (Rmw_arm { impl = Lxsx; acq = false; rel = false });
        Fence E.F_dmb_full;
      ]

let tcg_to_arm (b : backend) p =
  let map_one i =
    match i with
    | If _ | Assign _ -> [ i ]
    | Load { reg; loc; _ } -> [ Load { reg; loc; ord = E.R_plain } ]
    | Store { loc; value; _ } -> [ Store { loc; value; ord = E.W_plain } ]
    | Cas { reg; loc; expect; desired; kind = _ } ->
        lower_rmw b.rmw ~reg ~loc ~expect ~desired
    | Fence f -> (
        match lower_fence b.lowering f with Some f' -> [ Fence f' ] | None -> [])
  in
  map_instrs map_one { p with name = p.name ^ "→arm" }

let x86_to_arm frontend backend p = tcg_to_arm backend (x86_to_tcg frontend p)

let x86_to_arm_direct_armcats p =
  let map_one i =
    match i with
    | If _ | Assign _ -> [ i ]
    | Load { reg; loc; _ } -> [ Load { reg; loc; ord = E.R_acq_pc } ]
    | Store { loc; value; _ } -> [ Store { loc; value; ord = E.W_rel } ]
    | Cas c ->
        [ Cas { c with kind = Rmw_arm { impl = Amo; acq = true; rel = true } } ]
    | Fence E.F_mfence -> [ Fence E.F_dmb_full ]
    | Fence f -> [ Fence f ]
  in
  map_instrs map_one { p with name = p.name ^ "→arm-cats" }

let qemu_preset = (Qemu_frontend, backend Qemu_frontend Helper_gcc10)

let risotto_rmw2_preset =
  (Risotto_frontend, backend Risotto_frontend Risotto_rmw2)

let risotto_casal_preset =
  (Risotto_frontend, backend Risotto_frontend Risotto_rmw1)

(* Figure 1: concurrency primitives per architecture. *)
let figure1_rows =
  [
    ("Load", "RMOV", "ld", "LDR");
    ("Store", "WMOV", "st", "STR");
    ("Full-fence", "MFENCE", "Fsc", "DMBFF");
    ("WW-fence", "", "Fww", "DMBST");
    ("RM-fence", "", "Frm", "DMBLD");
    ("MW-fence", "", "Fmw", "");
    ("Atomic-update", "RMW", "RMW", "RMW1, RMW2");
    ("Rel.Acq. atomic-update", "", "", "RMW1_AL, RMW2_AL");
  ]

let arm_fence_name = function
  | E.F_dmb_ld -> "DMBLD"
  | E.F_dmb_st -> "DMBST"
  | _ -> "DMBFF"

(* Figure rows whose x86 → TCG and TCG → Arm cells are read off the
   access-class table and the fence lowering; only the RMW cells are
   literal text. *)
let figure_rows frontend ~rmw:(rmw_tcg, rmw_arm) =
  let row x86 access tcg arm =
    let seq name op =
      let names side = List.filter_map name (fences frontend side access) in
      String.concat "; " (names `Pre @ op @ names `Post)
    in
    let lower f =
      Option.map arm_fence_name (lower_fence (lowering frontend) f)
    in
    (x86, seq (fun f -> Some (E.fence_name f)) tcg, seq lower arm)
  in
  [
    row "RMOV" `Load [ "ld" ] [ "LDR" ];
    row "WMOV" `Store [ "st" ] [ "STR" ];
    ("RMW", rmw_tcg, rmw_arm);
    row "MFENCE" `Mfence [] [];
  ]

let figure2_rows = figure_rows Qemu_frontend ~rmw:("call", "BLR; RMW; RET")

let figure3_rows =
  [
    ("RMOV", "LDRQ");
    ("WMOV", "STRL");
    ("RMW", "RMW1_AL");
    ("MFENCE", "DMBFF");
  ]

let figure7c_rows =
  figure_rows Risotto_frontend ~rmw:("RMW", "DMBFF; RMW2; DMBFF or RMW1_AL")

let figure7a_rows = List.map (fun (x86, tcg, _) -> (x86, tcg)) figure7c_rows

let figure7b_rows =
  [
    ("ld", "LDR");
    ("st", "STR");
    ("RMW", "DMBFF; RMW2; DMBFF or RMW1_AL");
    ("Frr/Frw/Frm", "DMBLD");
    ("Fww", "DMBST");
    ("Fwr/Fmm/Fsc", "DMBFF");
    ("Facq/Frel", "-");
  ]
