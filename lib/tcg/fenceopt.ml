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
  | Op.Mb (f2, o2) :: rest' ->
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
    | Op.Mb (f, o) :: rest ->
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
          (Op.Mb (f', o) :: between) @ go rest'
        end
    | op :: rest -> op :: go rest
  in
  go ops

let count ops =
  List.length (List.filter (function Op.Mb _ -> true | _ -> false) ops)
