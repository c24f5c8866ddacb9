(* The list-based optimizer passes and pipeline accounting the array
   form replaced, kept as the reference the differential property in
   test_tcg.ml compares against.  Each pass rebuilds an [Op.t list];
   the pipeline records fence provenance exactly as the array pipeline
   must. *)

module Op = Tcg.Op
module Fence_ledger = Tcg.Fence_ledger

let reads = function
  | Op.Movi _ -> []
  | Op.Mov (_, s) -> [ s ]
  | Op.Binop (_, _, a, b) -> [ a; b ]
  | Op.Binopi (_, _, a, _) -> [ a ]
  | Op.Ld (_, base, _) -> [ base ]
  | Op.St (src, base, _) -> [ src; base ]
  | Op.Mb _ -> []
  | Op.Setcond (_, _, a, b) -> [ a; b ]
  | Op.Brcond (_, a, b, _) -> [ a; b ]
  | Op.Set_label _ | Op.Br _ -> []
  | Op.Rmw { op = `Cas; addr; expect; src; _ } -> [ addr; expect; src ]
  | Op.Rmw { op = `Xadd | `Xchg; addr; src; _ } -> [ addr; src ]
  | Op.Call (_, args, _) -> args
  | Op.Host_call { args; _ } -> args
  | Op.Goto_tb _ -> []
  | Op.Goto_ptr t -> [ t ]
  | Op.Exit_halt | Op.Trap _ -> []

let writes op = match Op.write op with -1 -> [] | d -> [ d ]

module Constfold = struct
  module IM = Map.Make (Int)

  (* Algebraic simplifications that also remove false dependencies. *)
  let simplify op d a (consts : int64 IM.t) imm =
    match (op, imm) with
    | Op.Mul, 0L | Op.And, 0L -> Some (Op.Movi (d, 0L))
    | Op.Mul, 1L | Op.Add, 0L | Op.Sub, 0L | Op.Or, 0L | Op.Xor, 0L
    | Op.Shl, 0L | Op.Shr, 0L ->
        Some (Op.Mov (d, a))
    | _ -> ignore consts; None

  let run ops =
    let rec go consts acc = function
      | [] -> List.rev acc
      | op :: rest -> (
          let const t = IM.find_opt t consts in
          let with_write d v rest' op' = go (IM.update d (fun _ -> v) consts) (op' :: acc) rest' in
          match op with
          | Op.Movi (d, v) -> with_write d (Some v) rest op
          | Op.Mov (d, s) -> (
              match const s with
              | Some v -> with_write d (Some v) rest (Op.Movi (d, v))
              | None -> with_write d None rest op)
          | Op.Binop (bop, d, a, b) -> (
              match (const a, const b) with
              | Some va, Some vb ->
                  let v = Op.eval_binop bop va vb in
                  with_write d (Some v) rest (Op.Movi (d, v))
              | None, Some vb -> (
                  match simplify bop d a consts vb with
                  | Some (Op.Movi (_, v) as op') -> with_write d (Some v) rest op'
                  | Some op' -> with_write d (const a) rest op'
                  | None -> with_write d None rest (Op.Binopi (bop, d, a, vb)))
              | Some va, None when bop = Op.Add || bop = Op.And || bop = Op.Or
                                   || bop = Op.Xor || bop = Op.Mul ->
                  (* commutative: fold the constant to the immediate side *)
                  with_write d None rest (Op.Binopi (bop, d, b, va))
              | _ ->
                  if (bop = Op.Xor || bop = Op.Sub) && a = b then
                    with_write d (Some 0L) rest (Op.Movi (d, 0L))
                  else with_write d None rest op)
          | Op.Binopi (bop, d, a, imm) -> (
              match const a with
              | Some va ->
                  let v = Op.eval_binop bop va imm in
                  with_write d (Some v) rest (Op.Movi (d, v))
              | None -> (
                  match simplify bop d a consts imm with
                  | Some (Op.Movi (_, v) as op') -> with_write d (Some v) rest op'
                  | Some op' -> with_write d (const a) rest op'
                  | None -> with_write d None rest op))
          | Op.Setcond (c, d, a, b) -> (
              match (const a, const b) with
              | Some va, Some vb ->
                  let v = if Op.eval_cond c va vb then 1L else 0L in
                  with_write d (Some v) rest (Op.Movi (d, v))
              | _ -> with_write d None rest op)
          | Op.Brcond (c, a, b, l) -> (
              match (const a, const b) with
              | Some va, Some vb ->
                  if Op.eval_cond c va vb then go consts (Op.Br l :: acc) rest
                  else go consts acc rest
              | _ -> go consts (op :: acc) rest)
          | Op.Ld (d, _, _) -> with_write d None rest op
          | Op.Rmw { old = d; _ } -> with_write d None rest op
          | Op.Call (_, _, Some d) | Op.Host_call { ret = Some d; _ } ->
              with_write d None rest op
          | Op.Set_label _ ->
              (* Join point: discard knowledge. *)
              go IM.empty (op :: acc) rest
          | Op.St _ | Op.Mb _ | Op.Br _
          | Op.Call (_, _, None)
          | Op.Host_call { ret = None; _ }
          | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ ->
              go consts (op :: acc) rest)
    in
    go IM.empty [] ops
end

module Dce = struct
  module IS = Set.Make (Int)

  let removable op =
    Op.is_pure op || match op with Op.Ld _ -> true | _ -> false

  let has_control ops =
    List.exists
      (function Op.Set_label _ | Op.Br _ | Op.Brcond _ -> true | _ -> false)
      ops

  let globals = IS.of_list (List.init Op.nb_globals Fun.id)

  (* Strategy 1: remove pure ops whose destination temp is local and never
     read anywhere in the block. *)
  let drop_unread_locals ops =
    let read =
      List.fold_left
        (fun acc op -> List.fold_left (fun acc t -> IS.add t acc) acc (reads op))
        IS.empty ops
    in
    List.filter
      (fun op ->
        match (removable op, writes op) with
        | true, [ d ] -> d < Op.nb_globals || IS.mem d read
        | _ -> true)
      ops

  (* Strategy 2 (straight-line only): backward liveness.  Block exits make
     every global live (the next block reads them); helper calls only read
     their explicit arguments. *)
  let drop_dead_straightline ops =
    let rec go live acc = function
      | [] -> acc
      | op :: before ->
          let exits_block =
            match op with
            | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> true
            | _ -> false
          in
          let dead d = not (IS.mem d live) in
          (match (removable op, writes op) with
          | true, [ d ] when dead d -> go live acc before
          | _ ->
              let live =
                List.fold_left (fun l t -> IS.remove t l) live (writes op)
              in
              let live =
                List.fold_left (fun l t -> IS.add t l) live (reads op)
              in
              let live = if exits_block then IS.union live globals else live in
              go live (op :: acc) before)
    in
    go IS.empty [] (List.rev ops)

  let run ops =
    let ops = drop_unread_locals ops in
    if has_control ops then ops else drop_dead_straightline ops
end

module Memopt = struct
  module T = Mapping.Transform

  type key = { base : Op.temp; base_ver : int; off : int64 }

  type store_entry = {
    s_idx : int;
    value : Op.temp;
    value_ver : int;
    mutable raw_ok : bool;
    mutable waw_ok : bool;
  }

  type load_entry = { dst : Op.temp; dst_ver : int; mutable rar_ok : bool }

  let run ops =
    let arr = Array.of_list ops in
    let deleted = Array.make (Array.length arr) false in
    let vers : (Op.temp, int) Hashtbl.t = Hashtbl.create 32 in
    let ver t = Option.value ~default:0 (Hashtbl.find_opt vers t) in
    let bump t = Hashtbl.replace vers t (ver t + 1) in
    let stores : (key, store_entry) Hashtbl.t = Hashtbl.create 8 in
    let loads : (key, load_entry) Hashtbl.t = Hashtbl.create 8 in
    let clear_all () =
      Hashtbl.reset stores;
      Hashtbl.reset loads
    in
    (* Remove entries that may alias [k] (different base identity), and
       the entry for [k] itself if [drop_same] is set. *)
    let invalidate_aliases k ~drop_same =
      let same_base k' = k'.base = k.base && k'.base_ver = k.base_ver in
      let keep k' = same_base k' && (k' <> k || not drop_same) in
      let prune tbl =
        let victims =
          Hashtbl.fold (fun k' _ acc -> if keep k' then acc else k' :: acc) tbl []
        in
        List.iter (Hashtbl.remove tbl) victims
      in
      prune stores;
      prune loads
    in
    Array.iteri
      (fun i op ->
        match op with
        | Op.Set_label _ | Op.Br _ | Op.Brcond _ -> clear_all ()
        | Op.Mb (f, _, _) ->
            Hashtbl.iter
              (fun _ (e : store_entry) ->
                if not (List.mem f (T.crossable T.F_raw)) then
                  e.raw_ok <- false;
                if not (List.mem f (T.crossable T.F_waw)) then
                  e.waw_ok <- false)
              stores;
            Hashtbl.iter
              (fun _ (e : load_entry) ->
                if not (List.mem f (T.crossable T.F_rar)) then
                  e.rar_ok <- false)
              loads
        | Op.Ld (d, b, off) -> (
            let k = { base = b; base_ver = ver b; off } in
            let forward src =
              if src = d then deleted.(i) <- true
              else arr.(i) <- Op.Mov (d, src);
              bump d
            in
            match Hashtbl.find_opt stores k with
            | Some se when se.raw_ok && se.value_ver = ver se.value ->
                forward se.value
            | _ -> (
                match Hashtbl.find_opt loads k with
                | Some le when le.rar_ok && le.dst_ver = ver le.dst ->
                    forward le.dst
                | _ ->
                    (* A surviving real load of this address pins any
                       tracked older store (cannot WAW-delete it). *)
                    (match Hashtbl.find_opt stores k with
                    | Some se -> se.waw_ok <- false
                    | None -> ());
                    bump d;
                    Hashtbl.replace loads k
                      { dst = d; dst_ver = ver d; rar_ok = true }))
        | Op.St (v, b, off) ->
            let k = { base = b; base_ver = ver b; off } in
            (match Hashtbl.find_opt stores k with
            | Some se when se.waw_ok -> deleted.(se.s_idx) <- true
            | _ -> ());
            invalidate_aliases k ~drop_same:true;
            Hashtbl.replace stores k
              { s_idx = i; value = v; value_ver = ver v; raw_ok = true; waw_ok = true }
        | Op.Rmw _ | Op.Call _ | Op.Host_call _ ->
            clear_all ();
            List.iter bump (writes op)
        | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> ()
        | Op.Movi _ | Op.Mov _ | Op.Binop _ | Op.Binopi _ | Op.Setcond _ ->
            List.iter bump (writes op))
      arr;
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun (i, op) -> if deleted.(i) then None else Some op)
            (Array.to_seqi arr)))
end

module Fenceopt = struct
  module E = Axiom.Event

  let pass = "fence-merge"

  (* Can we move a fence across this op when looking for a merge partner?
     Only pure register computations — no memory accesses, no control. *)
  let transparent op = Op.is_pure op

  (* [f] is the pending (joined) fence kind; [absorbed] (reversed) are the
     (kind, origin) pairs folded into it; [between] (reversed) are
     transparent ops seen since. *)
  let rec merge_from f absorbed between rest =
    match rest with
    | Op.Mb (f2, opc, rule) :: rest' ->
        let o2 = { Op.opc; rule } in
        merge_from (Mapping.Fence_alg.merge f f2) ((f2, o2) :: absorbed) between
          rest'
    | op :: rest' when transparent op ->
        merge_from f absorbed (op :: between) rest'
    | _ -> (f, List.rev absorbed, List.rev between, rest)

  let ledger_record ledger ~kind ~origin outcome =
    match ledger with
    | None -> ()
    | Some l -> Fence_ledger.record l ~pass ~kind ~origin outcome

  let run ?ledger ops =
    let rec go = function
      | [] -> []
      | Op.Mb (f, opc, rule) :: rest ->
          let o = { Op.opc; rule } in
          let f', absorbed, between, rest' = merge_from f [] [] rest in
          (* The survivor keeps the earliest fence's origin. *)
          List.iter
            (fun (k, ao) ->
              ledger_record ledger ~kind:k ~origin:ao
                (Fence_ledger.Merged { into = o; result = f' }))
            absorbed;
          if f' = E.F_acq || f' = E.F_rel then begin
            ledger_record ledger ~kind:f' ~origin:o Fence_ledger.Dropped;
            between @ go rest'
          end
          else begin
            if absorbed <> [] && f' <> f then
              ledger_record ledger ~kind:f' ~origin:o
                (Fence_ledger.Strengthened { from = f });
            (Op.Mb (f', opc, rule) :: between) @ go rest'
          end
      | op :: rest -> op :: go rest
    in
    go ops

  let count ops =
    List.length (List.filter (function Op.Mb _ -> true | _ -> false) ops)
end

let run_pass ?ledger : Tcg.Pipeline.pass -> Op.t list -> Op.t list = function
  | Tcg.Pipeline.Const_fold -> Constfold.run
  | Tcg.Pipeline.Dce -> Dce.run
  | Tcg.Pipeline.Mem_elim -> Memopt.run
  | Tcg.Pipeline.Fence_merge -> Fenceopt.run ?ledger

let fences ops =
  List.filter_map
    (function Op.Mb (f, opc, rule) -> Some (f, { Op.opc; rule }) | _ -> None)
    ops

(* Multiset difference: fences present before a pass but absent after
   it. *)
let diff_dropped before after =
  let remaining = ref after in
  List.filter
    (fun fo ->
      let rec remove = function
        | [] -> None
        | fo' :: rest when fo' = fo -> Some rest
        | fo' :: rest -> Option.map (fun r -> fo' :: r) (remove rest)
      in
      match remove !remaining with
      | Some rest ->
          remaining := rest;
          false
      | None -> true)
    before

(* [Pipeline.run]'s accounting over a list: the block's barriers as
   [Emitted], the multiset of barriers any non-merge pass loses as
   [Dropped], Fenceopt's own merge records, the survivors as [Kept]. *)
let run ?ledger passes ops =
  let l = match ledger with Some l -> l | None -> Fence_ledger.create () in
  let pass_name = Tcg.Pipeline.pass_name in
  List.iter
    (fun (f, o) -> Fence_ledger.record l ~pass:"frontend" ~kind:f ~origin:o
        Fence_ledger.Emitted)
    (fences ops);
  let ops =
    List.fold_left
      (fun ops p ->
        let before = if p = Tcg.Pipeline.Fence_merge then [] else fences ops in
        let ops' = run_pass ~ledger:l p ops in
        if p <> Tcg.Pipeline.Fence_merge then
          List.iter
            (fun (f, o) ->
              Fence_ledger.record l ~pass:(pass_name p) ~kind:f ~origin:o
                Fence_ledger.Dropped)
            (diff_dropped before (fences ops'));
        ops')
      ops passes
  in
  List.iter
    (fun (f, o) ->
      Fence_ledger.record l ~pass:"pipeline" ~kind:f ~origin:o
        Fence_ledger.Kept)
    (fences ops);
  ops
