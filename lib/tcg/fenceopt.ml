module E = Axiom.Event

let pass = "fence-merge"

(* Can we move a fence across this op when looking for a merge partner?
   Only pure register computations — no memory accesses, no control. *)
let transparent op = Op.is_pure op

(* {!Mapping.Fence_alg.merge} is a pure lattice join that allocates;
   the pass asks for a handful of pairs, so they are memoized. *)
let joins : E.fence option array = Array.make (E.fence_kinds * E.fence_kinds) None

let merge a b =
  let k = (E.fence_index a * E.fence_kinds) + E.fence_index b in
  match joins.(k) with
  | Some f -> f
  | None ->
      let f = Mapping.Fence_alg.merge a b in
      joins.(k) <- Some f;
      f

(* Record an outcome in the ledger, if any; the origin is built only
   then. *)
let record ledger ~kind opc rule outcome =
  match ledger with
  | None -> ()
  | Some l -> Fence_ledger.record l ~pass ~kind ~origin:{ Op.opc; rule } outcome

let rewrite ?ledger (w : Work.t) =
  let ops = w.ops in
  let i = ref 0 and j = ref 0 in
  while !i < w.len do
    match ops.(!i) with
    | Op.Mb (f, opc, rule) as mb ->
        (* The run of fences and transparent ops from [i] to [stop]: its
           fences join into one, placed where the earliest was. *)
        let stop = ref (!i + 1) and f' = ref f and absorbed = ref false in
        let scanning = ref true in
        while !scanning && !stop < w.len do
          match ops.(!stop) with
          | Op.Mb (f2, _, _) ->
              f' := merge !f' f2;
              absorbed := true;
              incr stop
          | op -> if transparent op then incr stop else scanning := false
        done;
        let f' = !f' in
        if ledger <> None then begin
          (* The survivor keeps the earliest fence's origin. *)
          let into = { Op.opc; rule } in
          for k = !i + 1 to !stop - 1 do
            match ops.(k) with
            | Op.Mb (k2, opc2, rule2) ->
                record ledger ~kind:k2 opc2 rule2 (Fence_ledger.Merged { into; result = f' })
            | _ -> ()
          done
        end;
        if f' = E.F_acq || f' = E.F_rel then record ledger ~kind:f' opc rule Fence_ledger.Dropped
        else begin
          if ledger <> None && !absorbed && f' <> f then
            record ledger ~kind:f' opc rule (Fence_ledger.Strengthened { from = f });
          ops.(!j) <- (if f' = f then mb else Op.Mb (f', opc, rule));
          incr j
        end;
        for k = !i + 1 to !stop - 1 do
          match ops.(k) with
          | Op.Mb _ -> ()
          | op ->
              ops.(!j) <- op;
              incr j
        done;
        i := !stop
    | op ->
        ops.(!j) <- op;
        incr j;
        incr i
  done;
  w.len <- !j

let count ops =
  Array.fold_left (fun n op -> match op with Op.Mb _ -> n + 1 | _ -> n) 0 ops
