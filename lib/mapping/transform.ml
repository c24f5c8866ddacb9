open Litmus.Ast
module E = Axiom.Event

type rule =
  | Rar
  | Raw
  | Waw
  | F_rar
  | F_raw
  | F_waw
  | Fence_merge
  | Reorder
  | False_dep_elim

let rule_name = function
  | Rar -> "RAR"
  | Raw -> "RAW"
  | Waw -> "WAW"
  | F_rar -> "F-RAR"
  | F_raw -> "F-RAW"
  | F_waw -> "F-WAW"
  | Fence_merge -> "fence-merge"
  | Reorder -> "reorder"
  | False_dep_elim -> "false-dep-elim"

let all_rules =
  [ Rar; Raw; Waw; F_rar; F_raw; F_waw; Fence_merge; Reorder; False_dep_elim ]

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)

let rec exp_regs acc = function
  | Int _ -> acc
  | Reg r -> r :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Xor (a, b) | Eq (a, b) | Ne (a, b)
    ->
      exp_regs (exp_regs acc a) b

let regs_read = function
  | Load _ -> []
  | Store { value; _ } -> exp_regs [] value
  | Cas { expect; desired; _ } -> exp_regs (exp_regs [] expect) desired
  | Assign (_, e) -> exp_regs [] e
  | Fence _ -> []
  | If { cond; _ } -> exp_regs [] cond

let regs_written = function
  | Load { reg; _ } -> [ reg ]
  | Cas { reg = Some reg; _ } -> [ reg ]
  | Assign (reg, _) -> [ reg ]
  | Cas { reg = None; _ } | Store _ | Fence _ | If _ -> []

let disjoint a b = not (List.exists (fun x -> List.mem x b) a)

(* False dependency simplification: x*0 ↝ 0, x^x ↝ 0, e+0 ↝ e, ... *)
let rec simplify_exp e =
  match e with
  | Int _ | Reg _ -> e
  | Mul (a, b) -> (
      match (simplify_exp a, simplify_exp b) with
      | Int 0, _ | _, Int 0 -> Int 0
      | Int 1, x | x, Int 1 -> x
      | a, b -> Mul (a, b))
  | Xor (a, b) -> (
      match (simplify_exp a, simplify_exp b) with
      | Reg r1, Reg r2 when r1 = r2 -> Int 0
      | a, b -> Xor (a, b))
  | Add (a, b) -> (
      match (simplify_exp a, simplify_exp b) with
      | Int 0, x | x, Int 0 -> x
      | a, b -> Add (a, b))
  | Sub (a, b) -> (
      match (simplify_exp a, simplify_exp b) with
      | x, Int 0 -> x
      | Reg r1, Reg r2 when r1 = r2 -> Int 0
      | a, b -> Sub (a, b))
  | Eq (a, b) -> Eq (simplify_exp a, simplify_exp b)
  | Ne (a, b) -> Ne (simplify_exp a, simplify_exp b)

(* ------------------------------------------------------------------ *)
(* Window rewriting                                                    *)

(* All results of applying [rw] (a rewriter of list prefixes) at exactly
   one position of [code]. *)
let rec rewrite_sites rw code =
  let here = match rw code with Some code' -> [ code' ] | None -> [] in
  match code with
  | [] -> here
  | x :: rest -> here @ List.map (fun r -> x :: r) (rewrite_sites rw rest)

let is_plain_load = function
  | Load { ord = E.R_plain; _ } -> true
  | _ -> false

let is_plain_store = function
  | Store { ord = E.W_plain; _ } -> true
  | _ -> false

(* The crossing table (Figure 10): the fences a fenced elimination may
   cross.  Constant lists: a lookup does not allocate. *)
let crossable = function
  | F_rar | F_waw -> [ E.F_rm; E.F_ww ]
  | F_raw -> [ E.F_sc; E.F_ww ]
  | Rar | Raw | Waw | Fence_merge | Reorder | False_dep_elim -> []

let tcg_fences =
  [
    E.F_rr; E.F_rw; E.F_rm; E.F_wr; E.F_ww; E.F_wm; E.F_mr; E.F_mw; E.F_mm;
    E.F_acq; E.F_rel; E.F_sc;
  ]

let rewriter rule code =
  match (rule, code) with
  | Rar, Load ({ reg = r1; loc = l1; ord = E.R_plain } as ld1) :: Load { reg = r2; loc = l2; ord = E.R_plain } :: rest
    when l1 = l2 ->
      Some (Load ld1 :: Assign (r2, Reg r1) :: rest)
  | Raw, Store ({ loc = l1; value; ord = E.W_plain } as st1) :: Load { reg; loc = l2; ord = E.R_plain } :: rest
    when l1 = l2 ->
      Some (Store st1 :: Assign (reg, value) :: rest)
  | Waw, Store { loc = l1; ord = E.W_plain; _ } :: (Store { loc = l2; ord = E.W_plain; _ } :: _ as rest)
    when l1 = l2 ->
      Some rest
  | F_rar, Load ({ reg = r1; loc = l1; ord = E.R_plain } as ld1) :: Fence f :: Load { reg = r2; loc = l2; ord = E.R_plain } :: rest
    when l1 = l2 && List.mem f (crossable F_rar) ->
      Some (Load ld1 :: Fence f :: Assign (r2, Reg r1) :: rest)
  | F_raw, Store ({ loc = l1; value; ord = E.W_plain } as st1) :: Fence f :: Load { reg; loc = l2; ord = E.R_plain } :: rest
    when l1 = l2 && List.mem f (crossable F_raw) ->
      Some (Store st1 :: Fence f :: Assign (reg, value) :: rest)
  | F_waw, Store { loc = l1; ord = E.W_plain; _ } :: Fence f :: (Store { loc = l2; ord = E.W_plain; _ } :: _ as rest)
    when l1 = l2 && List.mem f (crossable F_waw) ->
      Some (Fence f :: rest)
  | Fence_merge, Fence f1 :: Fence f2 :: rest
    when List.mem f1 tcg_fences && List.mem f2 tcg_fences ->
      Some (Fence (Fence_alg.merge f1 f2) :: rest)
  | Reorder, a :: b :: rest
    when (is_plain_load a || is_plain_store a)
         && (is_plain_load b || is_plain_store b) ->
      let loc_of = function
        | Load { loc; _ } | Store { loc; _ } -> Some loc
        | _ -> None
      in
      if
        loc_of a <> loc_of b
        && disjoint (regs_written a) (regs_read b)
        && disjoint (regs_written a) (regs_written b)
        && disjoint (regs_read a) (regs_written b)
      then Some (b :: a :: rest)
      else None
  | False_dep_elim, Store ({ value; _ } as st1) :: rest ->
      let value' = simplify_exp value in
      if value' <> value then Some (Store { st1 with value = value' } :: rest)
      else None
  | _, _ -> None

let applications rule (p : prog) =
  List.concat_map
    (fun (t : thread) ->
      List.map
        (fun code' ->
          {
            p with
            name = Printf.sprintf "%s+%s" p.name (rule_name rule);
            threads =
              List.map
                (fun (t' : thread) ->
                  if t'.tid = t.tid then { t' with code = code' } else t')
                p.threads;
          })
        (rewrite_sites (rewriter rule) t.code))
    p.threads

let soundness rule p =
  let model = Axiom.Tcg_model.model in
  List.map
    (fun tgt -> Check.refines ~src_model:model ~tgt_model:model ~src:p ~tgt)
    (applications rule p)

(* ------------------------------------------------------------------ *)
(* Pattern-bearing TCG corpus                                          *)

open Litmus.Dsl

let corpus =
  [
    (* RAR in an MP reader: eliminating the second read must not let the
       reader observe an older value. *)
    ( "MP+RAR",
      prog "MP+RAR" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 1; fence E.F_ww; st "Y" 1 ];
          [ ld "a" "Y"; ld "a2" "Y"; fence E.F_rm; ld "b" "X" ];
        ] );
    (* RAW: a reader of its own write. *)
    ( "RAW-local",
      prog "RAW-local" [ ("X", 0); ("Y", 0) ]
        [
          [ st "Y" 2; ld "a" "Y"; fence E.F_rw; st "X" 1 ];
          [ ld "b" "X"; fence E.F_rm; ld "c" "Y" ];
        ] );
    ( "WAW-local",
      prog "WAW-local" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 1; st "X" 2; fence E.F_ww; st "Y" 1 ];
          [ ld "a" "Y"; fence E.F_rm; ld "b" "X" ];
        ] );
    ( "F-RAR",
      prog "F-RAR" [ ("X", 0); ("Y", 0) ]
        [
          [ ld "a" "X"; fence E.F_rm; ld "a2" "X"; st "Y" 1 ];
          [ ld "b" "Y"; fence E.F_rm; ld "c" "X"; st "X" 1 ];
        ] );
    ( "F-RAW-ww",
      prog "F-RAW-ww" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 2; fence E.F_ww; ld "a" "X"; st "Y" 1 ];
          [ ld "b" "Y"; fence E.F_rm; ld "c" "X" ];
        ] );
    ( "F-RAW-sc",
      prog "F-RAW-sc" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 2; fence E.F_sc; ld "a" "X"; st "Y" 1 ];
          [ st "Y" 2; fence E.F_sc; ld "b" "Y"; st "X" 1 ];
        ] );
    ( "F-WAW",
      prog "F-WAW" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 1; fence E.F_ww; st "X" 2; fence E.F_ww; st "Y" 1 ];
          [ ld "a" "Y"; fence E.F_rm; ld "b" "X" ];
        ] );
    ( "merge-Frm-Fww",
      prog "merge-Frm-Fww" [ ("X", 0); ("Y", 0) ]
        [
          [ ld "a" "X"; fence E.F_rm; fence E.F_ww; st "Y" 1 ];
          [ ld "b" "Y"; fence E.F_rm; fence E.F_ww; st "X" 1 ];
        ] );
    ( "reorder-st-ld",
      prog "reorder-st-ld" [ ("X", 0); ("Y", 0) ]
        [
          [ st "X" 1; ld "a" "Y" ];
          [ st "Y" 1; ld "b" "X" ];
        ] );
    ( "false-dep",
      prog "false-dep" [ ("X", 0); ("Y", 0) ]
        [
          [ ld "a" "X"; st_e "Y" (Mul (Reg "a", Int 0)) ];
          [ ld "b" "Y"; st_e "X" (Mul (Reg "b", Int 0)) ];
        ] );
    (* The FMR program itself: RAW over Fmr is the unsound instance. *)
    ("FMR", Litmus.Catalog.fmr_tcg_src);
  ]
