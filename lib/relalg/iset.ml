(* Bit [x] of the mask is element [x]; bit 62 is the sign bit of an
   OCaml int, so iterate with [lsr], never [asr]. *)
type t = int

let max_id = 62

let bit x =
  if x < 0 || x > max_id then
    invalid_arg (Printf.sprintf "Relalg: event id %d outside 0..%d" x max_id);
  1 lsl x

let of_mask s = s
let empty = 0
let is_empty s = s = 0
let mem x s = s land bit x <> 0
let add x s = s lor bit x
let singleton = bit

let cardinal s =
  let rec go n s = if s = 0 then n else go (n + 1) (s land (s - 1)) in
  go 0 s

let union = ( lor )
let diff a b = a land lnot b
let equal = Int.equal
let of_list l = List.fold_left (fun s x -> add x s) 0 l

(* Ascending order, as [Set.Make (Int)] iterates. *)
let fold f s acc =
  let rec go x s acc =
    if s = 0 then acc else go (x + 1) (s lsr 1) (if s land 1 <> 0 then f x acc else acc)
  in
  go 0 s acc

let to_list s = List.rev (fold List.cons s [])
let filter p s = fold (fun x acc -> if p x then acc lor (1 lsl x) else acc) s 0

let for_all p s =
  let rec go x s = s = 0 || ((s land 1 = 0 || p x) && go (x + 1) (s lsr 1)) in
  go 0 s

let pp ppf s = Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (to_list s)
