open Litmus.Ast

let rec fences_in_instrs acc = function
  | [] -> acc
  | Fence f :: rest -> fences_in_instrs (f :: acc) rest
  | If { then_; else_; _ } :: rest ->
      let acc = fences_in_instrs acc then_ in
      let acc = fences_in_instrs acc else_ in
      fences_in_instrs acc rest
  | (Load _ | Store _ | Rmw _ | Assign _) :: rest -> fences_in_instrs acc rest

let fences (p : prog) =
  List.rev
    (List.fold_left
       (fun acc (t : thread) -> fences_in_instrs acc t.code)
       [] p.threads)

let fence_count p = List.length (fences p)

(* Delete the n-th fence in the same flattening order as [fences]. *)
let delete_fence (p : prog) n =
  let k = ref 0 in
  let rec del instrs =
    List.concat_map
      (fun i ->
        match i with
        | Fence _ ->
            let here = !k in
            incr k;
            if here = n then [] else [ i ]
        | If { cond; then_; else_ } ->
            (* match the counting order of [fences_in_instrs] *)
            let then_ = del then_ in
            let else_ = del else_ in
            [ If { cond; then_; else_ } ]
        | Load _ | Store _ | Rmw _ | Assign _ -> [ i ])
      instrs
  in
  (* explicit fold: List.map's evaluation order is unspecified and the
     counter is shared across threads *)
  let threads =
    List.rev
      (List.fold_left
         (fun acc (t : thread) -> { t with code = del t.code } :: acc)
         [] p.threads)
  in
  { p with name = Printf.sprintf "%s-fence%d" p.name n; threads }

type site = { index : int; fence : Axiom.Event.fence; necessary : bool }

(* Deleting a fence keeps every access, so each variant zips with the
   source: one pass checks them all. *)
let necessary_fences f ~src_model ~tgt_model src =
  let tgt = f src in
  let sites = List.mapi (fun index fence -> (index, fence)) (fences tgt) in
  let images = List.map (fun (index, _) -> (delete_fence tgt index, [ tgt_model ])) sites in
  let results = Litmus.Enumerate.pass ~probe:false src ((src, [ src_model ]) :: images) in
  let bs = List.map (fun r -> fst (snd (List.hd r))) results in
  List.map2
    (fun (index, fence) bt ->
      let r = Check.assemble ~scheme:"" ~program:"" ~src:(List.hd bs) ~tgt:bt in
      { index; fence; necessary = not r.ok })
    sites (List.tl bs)

let pp_site ppf s =
  Fmt.pf ppf "fence %d (%a): %s" s.index Axiom.Event.pp_fence s.fence
    (if s.necessary then "necessary" else "redundant here")
