open Relalg

let ord x =
  let po = x.Execution.po in
  let r = Execution.reads x and w = Execution.writes x in
  let m = Iset.union r w in
  let f k = Execution.fences x k in
  (* [before]; po; [F]; po; [after], empty without an F fence. *)
  let fence_clause before kind after =
    match f kind with
    | fs when Iset.is_empty fs -> Rel.empty
    | fs -> Rel.restrict before (Rel.sequence [ po; Rel.id fs; po ]) after
  in
  let rmw = Execution.rmw x in
  let rsc = Execution.sc_reads x and wsc = Execution.sc_writes x in
  let sc_before = Iset.union wsc (Rel.domain rmw) in
  let sc_after = Iset.union rsc (Rel.codomain rmw) in
  let fsc = f Event.F_sc in
  Rel.union_all
    [
      fence_clause r Event.F_rr r;
      fence_clause r Event.F_rw w;
      fence_clause r Event.F_rm m;
      fence_clause w Event.F_wr r;
      fence_clause w Event.F_ww w;
      fence_clause w Event.F_wm m;
      fence_clause m Event.F_mr r;
      fence_clause m Event.F_mw w;
      fence_clause m Event.F_mm m;
      Rel.compose po (Rel.id sc_before);
      Rel.compose (Rel.id sc_after) po;
      Rel.compose po (Rel.id fsc);
      Rel.compose (Rel.id fsc) po;
    ]

let model =
  Model.make "TCG-IR"
    [
      Model.coherence;
      Model.acyclic "TCG (GOrd: ghb)" (fun skel ->
          let o = ord skel in
          fun x -> Rel.union_all [ o; Execution.rfe x; Execution.coe x; Execution.fre x ]);
      Model.atomicity;
    ]
