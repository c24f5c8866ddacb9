(* Row [x] is the successor mask of [x].  The array is trimmed so that
   its last row is non-empty (the empty relation is [||]): equal
   relations are then structurally equal and hash alike.  No function
   mutates an array it did not allocate itself. *)
type t = int array

let bit x = (Iset.singleton x :> int)
let mask (s : Iset.t) = (s :> int)

(* Index of the highest set bit of a non-zero mask. *)
let top m =
  let rec go x m = if m = 1 then x else go (x + 1) (m lsr 1) in
  go 0 m

let trim r =
  let n = ref (Array.length r) in
  while !n > 0 && Array.unsafe_get r (!n - 1) = 0 do decr n done;
  if !n = Array.length r then r else Array.sub r 0 !n

let row r x =
  if x >= 0 && x < Array.length r then Array.unsafe_get r x else (ignore (bit x); 0)

(* The relation whose row [x] is [f x] for [x] below [n]. *)
let init_masks n f = trim (Array.init n f)

let init n f =
  if n > 0 then ignore (bit (n - 1));
  init_masks n (fun x -> (f x : Iset.t :> int))

let empty = [||]
let is_empty r = Array.length r = 0
let mem x y r = row r x land bit y <> 0

let of_list l =
  let n = List.fold_left (fun n (x, y) -> ignore (bit x + bit y); max n (x + 1)) 0 l in
  let r = Array.make n 0 in
  List.iter (fun (x, y) -> r.(x) <- r.(x) lor (1 lsl y)) l;
  r

(* Pairs in ascending lexicographic order, as [Set.Make] over pairs
   iterates them. *)
let fold f r acc =
  let acc = ref acc in
  Array.iteri (fun x m -> acc := Iset.fold (fun y acc -> f x y acc) (Iset.of_mask m) !acc) r;
  !acc

let to_list r = List.rev (fold (fun x y acc -> (x, y) :: acc) r [])

(* The hot kernels below ([union], [union_all], [inter], [compose],
   [restrict], [acyclic]) are plain loops over the rows: no closure per
   row, and a result is allocated once, at its trimmed length. *)

(* [a] or [b] when the other is empty: relations are never mutated, so
   a union may share its operand. *)
let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else
    let long, short, ns = if na >= nb then (a, b, nb) else (b, a, na) in
    let out = Array.copy long in
    for x = 0 to ns - 1 do
      Array.unsafe_set out x (Array.unsafe_get out x lor Array.unsafe_get short x)
    done;
    out

let union_all rs =
  match List.filter (fun r -> Array.length r > 0) rs with
  | [] -> empty
  | [ r ] -> r
  | rs ->
      let n = List.fold_left (fun n r -> max n (Array.length r)) 0 rs in
      let out = Array.make n 0 in
      List.iter
        (fun r ->
          for x = 0 to Array.length r - 1 do
            Array.unsafe_set out x (Array.unsafe_get out x lor Array.unsafe_get r x)
          done)
        rs;
      out

let add x y r = union r (of_list [ (x, y) ])

let inter a b =
  let n = ref (min (Array.length a) (Array.length b)) in
  while !n > 0 && Array.unsafe_get a (!n - 1) land Array.unsafe_get b (!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then empty
  else
    let out = Array.make !n 0 in
    for x = 0 to !n - 1 do
      Array.unsafe_set out x (Array.unsafe_get a x land Array.unsafe_get b x)
    done;
    out

let equal (a : t) b = a = b
let subset a b = equal (inter a b) a

(* Row [x] of [r; s] is the union of the rows of [s] that row [x] of
   [r] selects. *)
let compose_row r s ns x =
  let acc = ref 0 and m = ref (Array.unsafe_get r x) and y = ref 0 in
  while !m <> 0 && !y < ns do
    if !m land 1 <> 0 then acc := !acc lor Array.unsafe_get s !y;
    m := !m lsr 1;
    incr y
  done;
  !acc

let compose r s =
  let ns = Array.length s in
  if ns = 0 then empty
  else begin
    (* The last non-empty row first, so the result is allocated once. *)
    let n = ref (Array.length r) and last = ref 0 in
    while !n > 0 && !last = 0 do
      last := compose_row r s ns (!n - 1);
      if !last = 0 then decr n
    done;
    if !n = 0 then empty
    else
      let out = Array.make !n !last in
      for x = 0 to !n - 2 do
        Array.unsafe_set out x (compose_row r s ns x)
      done;
      out
  end

let sequence = function
  | [] -> invalid_arg "Rel.sequence: empty list"
  | r :: rs -> List.fold_left compose r rs

let domain r =
  let d = ref 0 in
  Array.iteri (fun x m -> if m <> 0 then d := !d lor (1 lsl x)) r;
  Iset.of_mask !d

let codomain r = Iset.of_mask (Array.fold_left ( lor ) 0 r)
let elements r = Iset.union (domain r) (codomain r)

let inverse r =
  match mask (codomain r) with
  | 0 -> empty
  | cod ->
      let out = Array.make (top cod + 1) 0 in
      Array.iteri
        (fun x m ->
          let b = 1 lsl x and m = ref m and y = ref 0 in
          while !m <> 0 do
            if !m land 1 <> 0 then out.(!y) <- out.(!y) lor b;
            m := !m lsr 1;
            incr y
          done)
        r;
      out

(* Row [f x] gathers [f y] for every [y] in row [x]; ids are checked as
   [bit] checks them, and the result is trimmed because every row it
   writes is non-empty. *)
let map f r =
  let n = ref 0 in
  Array.iteri (fun x m -> if m <> 0 then n := max !n (top (bit (f x)) + 1)) r;
  let out = Array.make !n 0 in
  Array.iteri
    (fun x m ->
      let row = ref 0 and m = ref m and y = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then row := !row lor bit (f !y);
        m := !m lsr 1;
        incr y
      done;
      if !row <> 0 then out.(f x) <- out.(f x) lor !row)
    r;
  out

let succs r x = Iset.of_mask (row r x)
let preds r y = succs (inverse r) y

let id s =
  match mask s with
  | 0 -> empty
  | m -> Array.init (top m + 1) (fun x -> m land (1 lsl x))

let cross a b =
  match (mask a, mask b) with
  | 0, _ | _, 0 -> empty
  | ma, mb -> Array.init (top ma + 1) (fun x -> if ma land (1 lsl x) <> 0 then mb else 0)

let restrict a r b =
  let ma = mask a and mb = mask b in
  let row x = if ma land (1 lsl x) <> 0 then Array.unsafe_get r x land mb else 0 in
  let n = ref (Array.length r) in
  while !n > 0 && row (!n - 1) = 0 do decr n done;
  if !n = 0 then empty
  else
    let out = Array.make !n 0 in
    for x = 0 to !n - 1 do
      Array.unsafe_set out x (row x)
    done;
    out

(* Bit-parallel Warshall: once [k] is an allowed intermediate, every
   row that reaches [k] gains row [k].  Ids past the last row have no
   successors, so they are never intermediates. *)
let transitive_closure r =
  let n = Array.length r in
  let c = Array.copy r in
  for k = 0 to n - 1 do
    let ck = c.(k) and b = 1 lsl k in
    if ck <> 0 then
      for i = 0 to n - 1 do
        let ci = Array.unsafe_get c i in
        if ci land b <> 0 then Array.unsafe_set c i (ci lor ck)
      done
  done;
  c

let irreflexive r =
  let rec go x = x < 0 || (r.(x) land (1 lsl x) = 0 && go (x - 1)) in
  go (Array.length r - 1)

(* Peel sinks: a node none of whose successors remain is on no cycle,
   so drop every such node each round.  The relation is acyclic iff
   this empties the graph; a round that drops nothing leaves only nodes
   on or leading into a cycle.  No allocation, and a round per step of
   the longest path rather than Warshall's n² word operations. *)
let acyclic r =
  let n = Array.length r in
  let remaining = ref 0 in
  for x = 0 to n - 1 do
    if Array.unsafe_get r x <> 0 then remaining := !remaining lor (1 lsl x)
  done;
  let progress = ref true in
  while !remaining <> 0 && !progress do
    let rem = !remaining in
    let left = ref rem and m = ref rem and x = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 && Array.unsafe_get r !x land rem = 0 then
        left := !left land lnot (1 lsl !x);
      m := !m lsr 1;
      incr x
    done;
    progress := !left <> rem;
    remaining := !left
  done;
  !remaining = 0

let minus_id r = init_masks (Array.length r) (fun x -> r.(x) land lnot (1 lsl x))

let is_strict_total_order_on s r =
  let r = restrict s r s in
  irreflexive (transitive_closure r)
  &&
  let inv = inverse r and ms = mask s in
  Iset.for_all
    (fun x ->
      let others = ms land lnot (1 lsl x) in
      (row r x lor row inv x) land others = others)
    s

(* Drop [(x, y)] when some [z] other than [x] and [y] has [(x, z)] and
   [(z, y)]: row [x] loses every [y] two steps away. *)
let immediate r =
  init_masks (Array.length r) (fun x ->
      let rx = r.(x) in
      let two_steps =
        Iset.fold
          (fun z acc -> acc lor (row r z land lnot (1 lsl z)))
          (Iset.of_mask (rx land lnot (1 lsl x)))
          0
      in
      rx land lnot two_steps)

(* The strict total order listing [order]: each element precedes every
   later one. *)
let order_to_rel order =
  let out = Array.make (List.fold_left (fun n x -> max n (x + 1)) 0 order) 0 in
  ignore
    (List.fold_right (fun x later -> out.(x) <- later; later lor (1 lsl x)) order 0);
  trim out

let linear_extensions s r =
  let r = transitive_closure (restrict s r s) in
  if not (irreflexive r) then []
  else
    (* Enumerate topological orders by repeatedly picking a minimal
       element among the remaining ones, in ascending id order. *)
    let preds = inverse r in
    let rec go remaining prefix acc =
      if remaining = 0 then List.rev prefix :: acc
      else
        Iset.fold
          (fun x acc ->
            let others = remaining land lnot (1 lsl x) in
            if row preds x land others = 0 then go others (x :: prefix) acc else acc)
          (Iset.of_mask remaining) acc
    in
    List.map order_to_rel (go (mask s) [] [])

let find_cycle r =
  (* DFS with an explicit ancestor path; relations are litmus-sized so
     the exponential worst case is irrelevant. *)
  let rec dfs path x =
    if List.mem x path then
      (* path = [parent; grandparent; ...]: the cycle is the prefix up
         to the earlier occurrence of x, in reverse (edge) order. *)
      let rec prefix = function
        | [] -> []
        | y :: rest -> if y = x then [ y ] else y :: prefix rest
      in
      Some (List.rev (prefix path))
    else
      Iset.fold
        (fun y acc -> match acc with Some _ -> acc | None -> dfs (x :: path) y)
        (succs r x) None
  in
  Iset.fold
    (fun x acc -> match acc with Some _ -> acc | None -> dfs [] x)
    (elements r) None

let pp ppf r =
  let pp_pair ppf (x, y) = Fmt.pf ppf "(%d,%d)" x y in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_pair) (to_list r)
