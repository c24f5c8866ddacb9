(* Per temp: the epoch its constant was learnt in (known iff it equals
   the current epoch, so a label forgets everything by bumping the
   epoch), and the constant. *)
let stamps : int Work.table = Work.table ()
let values : int64 Work.table = Work.table ()

let commutative = function
  | Op.Add | Op.And | Op.Or | Op.Xor | Op.Mul -> true
  | Op.Sub | Op.Shl | Op.Shr -> false

(* Temp [t] holds a constant learnt in [epoch]. *)
let known stamp epoch t = stamp.(t) = epoch

(* [d] now holds [v] / something unknown. *)
let learn stamp value epoch d v =
  stamp.(d) <- epoch;
  value.(d) <- v

let forget stamp d = stamp.(d) <- 0

let fold stamp value epoch d v =
  learn stamp value epoch d v;
  Op.Movi (d, v)

(* [d = a op imm] with [a] unknown: the algebraic identities, which
   also remove false dependencies. *)
let simplify stamp value epoch op bop d a imm =
  match (bop, imm) with
  | (Op.Mul | Op.And), 0L -> fold stamp value epoch d 0L
  | Op.Mul, 1L | (Op.Add | Op.Sub | Op.Or | Op.Xor | Op.Shl | Op.Shr), 0L ->
      forget stamp d;
      Op.Mov (d, a)
  | _ ->
      forget stamp d;
      op

(* The op that replaces [op], given the constants learnt in [epoch].
   [rewrite] itself handles labels and drops branches decided false. *)
let rewrite_op stamp value epoch op =
  match op with
  | Op.Movi (d, v) ->
      learn stamp value epoch d v;
      op
  | Op.Mov (d, s) ->
      if known stamp epoch s then fold stamp value epoch d value.(s)
      else begin
        forget stamp d;
        op
      end
  | Op.Binop (bop, d, a, b) ->
      if known stamp epoch a && known stamp epoch b then
        fold stamp value epoch d (Op.eval_binop bop value.(a) value.(b))
      else if known stamp epoch b then
        simplify stamp value epoch (Op.Binopi (bop, d, a, value.(b))) bop d a value.(b)
      else if known stamp epoch a && commutative bop then begin
        (* fold the constant to the immediate side *)
        forget stamp d;
        Op.Binopi (bop, d, b, value.(a))
      end
      else if (bop = Op.Xor || bop = Op.Sub) && a = b then fold stamp value epoch d 0L
      else begin
        forget stamp d;
        op
      end
  | Op.Binopi (bop, d, a, imm) ->
      if known stamp epoch a then fold stamp value epoch d (Op.eval_binop bop value.(a) imm)
      else simplify stamp value epoch op bop d a imm
  | Op.Setcond (c, d, a, b) ->
      if known stamp epoch a && known stamp epoch b then
        fold stamp value epoch d (if Op.eval_cond c value.(a) value.(b) then 1L else 0L)
      else begin
        forget stamp d;
        op
      end
  | Op.Brcond (c, a, b, l) ->
      if known stamp epoch a && known stamp epoch b && Op.eval_cond c value.(a) value.(b) then
        Op.Br l
      else op
  | Op.Ld (d, _, _)
  | Op.Rmw { old = d; _ }
  | Op.Call (_, _, Some d)
  | Op.Host_call { ret = Some d; _ } ->
      forget stamp d;
      op
  | Op.St _ | Op.Mb _ | Op.Br _ | Op.Set_label _
  | Op.Call (_, _, None)
  | Op.Host_call { ret = None; _ }
  | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ ->
      op

let rewrite (w : Work.t) =
  let stamp = Work.get stamps w.ntemps 0 and value = Work.get values w.ntemps 0L in
  let ops = w.ops in
  let epoch = ref 1 and j = ref 0 in
  for i = 0 to w.len - 1 do
    match ops.(i) with
    | Op.Set_label _ as op ->
        (* Join point: discard knowledge. *)
        incr epoch;
        ops.(!j) <- op;
        incr j
    | Op.Brcond (c, a, b, _)
      when known stamp !epoch a && known stamp !epoch b
           && not (Op.eval_cond c value.(a) value.(b)) ->
        ()
    | op ->
        ops.(!j) <- rewrite_op stamp value !epoch op;
        incr j
  done;
  w.len <- !j
