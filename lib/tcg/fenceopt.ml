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

let rewrite ?ledger (w : Work.t) =
  let ops = w.ops in
  let record ~kind ~origin outcome =
    match ledger with
    | None -> ()
    | Some l -> Fence_ledger.record l ~pass ~kind ~origin outcome
  in
  let i = ref 0 and j = ref 0 in
  while !i < w.len do
    match ops.(!i) with
    | Op.Mb (f, o) as mb ->
        (* The run of fences and transparent ops from [i] to [stop]: its
           fences join into one, placed where the earliest was. *)
        let stop = ref (!i + 1) and f' = ref f and absorbed = ref false in
        let scanning = ref true in
        while !scanning && !stop < w.len do
          match ops.(!stop) with
          | Op.Mb (f2, _) ->
              f' := merge !f' f2;
              absorbed := true;
              incr stop
          | op -> if transparent op then incr stop else scanning := false
        done;
        let f' = !f' in
        if ledger <> None then
          for k = !i + 1 to !stop - 1 do
            match ops.(k) with
            | Op.Mb (k2, o2) ->
                (* The survivor keeps the earliest fence's origin. *)
                record ~kind:k2 ~origin:o2 (Fence_ledger.Merged { into = o; result = f' })
            | _ -> ()
          done;
        if f' = E.F_acq || f' = E.F_rel then record ~kind:f' ~origin:o Fence_ledger.Dropped
        else begin
          if !absorbed && f' <> f then
            record ~kind:f' ~origin:o (Fence_ledger.Strengthened { from = f });
          ops.(!j) <- (if f' = f then mb else Op.Mb (f', o));
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

let run ?ledger ops =
  let w = Work.of_array ops in
  rewrite ?ledger w;
  Work.contents w

let count ops =
  Array.fold_left (fun n op -> match op with Op.Mb _ -> n + 1 | _ -> n) 0 ops
