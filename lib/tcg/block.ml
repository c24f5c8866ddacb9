type t = {
  guest_pc : int64;
  guest_len : int;
  guest_insns : int;
  ops : Op.t array;
  labels : int array;
}

let max_label ops =
  Array.fold_left
    (fun m op ->
      match op with
      | Op.Brcond (_, _, _, l) | Op.Set_label l | Op.Br l -> max m l
      | _ -> m)
    (-1) ops

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

(* ------------------------------------------------------------------ *)
(* Superblock stitching: concatenate straight-line blocks into one. *)

let shift_label k = function
  | Op.Brcond (c, a, b, l) -> Op.Brcond (c, a, b, l + k)
  | Op.Set_label l -> Op.Set_label (l + k)
  | Op.Br l -> Op.Br (l + k)
  | op -> op

(* Drop [Br l] when it lands on the immediately following [Set_label l]
   (and the label itself when nothing else targets it), so a stitched
   seam becomes genuinely straight-line code the label-blocked
   optimizer passes can see across. *)
let elide_adjacent_branches ops =
  let refs = Array.make (max_label ops + 1) 0 in
  Array.iter
    (function
      | Op.Br l | Op.Brcond (_, _, _, l) -> refs.(l) <- refs.(l) + 1
      | _ -> ())
    ops;
  let n = Array.length ops in
  let out = Array.make n Op.Exit_halt in
  let j = ref 0 and i = ref 0 in
  while !i < n do
    let seam_label =
      match ops.(!i) with
      | Op.Br l when !i + 1 < n -> (
          match ops.(!i + 1) with Op.Set_label l' when l = l' -> l | _ -> -1)
      | _ -> -1
    in
    if seam_label < 0 then begin
      out.(!j) <- ops.(!i);
      incr j
    end
    (* Only the branch goes when another branch still targets the
       label. *)
    else if refs.(seam_label) = 1 then incr i;
    incr i
  done;
  Array.sub out 0 !j

let concat = function
  | [] -> invalid_arg "Block.concat: empty block list"
  | head :: tail ->
      let total = List.fold_left (fun n b -> n + 1 + Array.length b.ops) 0 tail in
      let ops = Array.make (Array.length head.ops + total) Op.Exit_halt in
      Array.blit head.ops 0 ops 0 (Array.length head.ops);
      let len = ref (Array.length head.ops) in
      let next_label = ref (max_label head.ops + 1) in
      List.iter
        (fun b ->
          let shift = !next_label in
          next_label := !next_label + max_label b.ops + 1;
          let seam = !next_label in
          incr next_label;
          (* Redirect every static exit to [b] seen so far into the
             appended copy; exits to other pcs (and back edges in [b]
             itself) stay as side exits. *)
          for i = 0 to !len - 1 do
            match ops.(i) with
            | Op.Goto_tb pc when Int64.equal pc b.guest_pc -> ops.(i) <- Op.Br seam
            | _ -> ()
          done;
          ops.(!len) <- Op.Set_label seam;
          Array.iteri (fun i op -> ops.(!len + 1 + i) <- shift_label shift op) b.ops;
          len := !len + 1 + Array.length b.ops)
        tail;
      make ~guest_pc:head.guest_pc
        ~guest_len:(List.fold_left (fun n b -> n + b.guest_len) 0 (head :: tail))
        ~guest_insns:(List.fold_left (fun n b -> n + b.guest_insns) 0 (head :: tail))
        (elide_adjacent_branches (Array.sub ops 0 !len))
