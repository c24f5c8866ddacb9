(* Per temp: the epoch its constant was learnt in (known iff it equals
   the current epoch, so a label forgets everything by bumping the
   epoch), and the constant. *)
let stamps : int Work.table = Work.table ()
let values : int64 Work.table = Work.table ()

let commutative = function
  | Op.Add | Op.And | Op.Or | Op.Xor | Op.Mul -> true
  | Op.Sub | Op.Shl | Op.Shr -> false

let rewrite (w : Work.t) =
  let stamp = Work.get stamps w.ntemps 0 and value = Work.get values w.ntemps 0L in
  let ops = w.ops in
  let epoch = ref 1 and j = ref 0 in
  let emit op =
    ops.(!j) <- op;
    incr j
  in
  (* [d] now holds [v] / something unknown. *)
  let learn d v =
    stamp.(d) <- !epoch;
    value.(d) <- v
  in
  let forget d = stamp.(d) <- 0 in
  let known t = stamp.(t) = !epoch in
  let fold d v =
    learn d v;
    emit (Op.Movi (d, v))
  in
  (* [d = a op imm] with [a] unknown: the algebraic identities, which
     also remove false dependencies. *)
  let simplify op bop d a imm =
    match (bop, imm) with
    | (Op.Mul | Op.And), 0L -> fold d 0L
    | Op.Mul, 1L | (Op.Add | Op.Sub | Op.Or | Op.Xor | Op.Shl | Op.Shr), 0L ->
        forget d;
        emit (Op.Mov (d, a))
    | _ ->
        forget d;
        emit op
  in
  for i = 0 to w.len - 1 do
    match ops.(i) with
    | Op.Movi (d, v) as op ->
        learn d v;
        emit op
    | Op.Mov (d, s) as op ->
        if known s then fold d value.(s)
        else begin
          forget d;
          emit op
        end
    | Op.Binop (bop, d, a, b) as op ->
        if known a && known b then fold d (Op.eval_binop bop value.(a) value.(b))
        else if known b then simplify (Op.Binopi (bop, d, a, value.(b))) bop d a value.(b)
        else if known a && commutative bop then begin
          (* fold the constant to the immediate side *)
          let va = value.(a) in
          forget d;
          emit (Op.Binopi (bop, d, b, va))
        end
        else if (bop = Op.Xor || bop = Op.Sub) && a = b then fold d 0L
        else begin
          forget d;
          emit op
        end
    | Op.Binopi (bop, d, a, imm) as op ->
        if known a then fold d (Op.eval_binop bop value.(a) imm)
        else simplify op bop d a imm
    | Op.Setcond (c, d, a, b) as op ->
        if known a && known b then
          fold d (if Op.eval_cond c value.(a) value.(b) then 1L else 0L)
        else begin
          forget d;
          emit op
        end
    | Op.Brcond (c, a, b, l) as op ->
        if known a && known b then begin
          if Op.eval_cond c value.(a) value.(b) then emit (Op.Br l)
        end
        else emit op
    | ( Op.Ld (d, _, _)
      | Op.Rmw { old = d; _ }
      | Op.Call (_, _, Some d)
      | Op.Host_call { ret = Some d; _ } ) as op ->
        forget d;
        emit op
    | Op.Set_label _ as op ->
        (* Join point: discard knowledge. *)
        incr epoch;
        emit op
    | ( Op.St _ | Op.Mb _ | Op.Br _
      | Op.Call (_, _, None)
      | Op.Host_call { ret = None; _ }
      | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ ) as op ->
        emit op
  done;
  w.len <- !j
