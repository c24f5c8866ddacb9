type t = {
  guest_pc : int64;
  guest_len : int;
  guest_insns : int;
  ops : Op.t array;
  labels : int array;
}

let resolve_labels ops =
  let defined =
    Array.fold_left
      (fun m op -> match op with Op.Set_label l -> max m l | _ -> m)
      (-1) ops
  in
  if defined < 0 then [||]
  else begin
    let labels = Array.make (defined + 1) (-1) in
    Array.iteri
      (fun i op ->
        match op with Op.Set_label l when l >= 0 -> labels.(l) <- i | _ -> ())
      ops;
    labels
  end

let make ~guest_pc ~guest_len ~guest_insns ops =
  { guest_pc; guest_len; guest_insns; ops; labels = resolve_labels ops }

let with_ops b ops = { b with ops; labels = resolve_labels ops }
let op_count b = Array.length b.ops

let pp ppf b =
  Fmt.pf ppf "@[<v>TB@0x%Lx (%d guest insns):@,%a@]" b.guest_pc b.guest_insns
    (Fmt.array ~sep:Fmt.cut Op.pp)
    b.ops
