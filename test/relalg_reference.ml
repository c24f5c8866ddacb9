(* The relations the bit-row [Relalg] replaced, and the list-based
   execution accessors that used them, kept as the reference the
   differential properties in test_relalg.ml compare against.  [Iset]
   and [Rel] are balanced trees ([Set.Make]) over ids and id pairs;
   [Execution] finds events with [List.find_opt] and re-walks the event
   list for every set.  [Relalg] re-exports the two so that lib/axiom's
   model sources, which [open Relalg], compile against them (see the
   [axiom_reference.ml] rule in this directory's dune file). *)

module Iset = struct
  module S = Set.Make (Int)

  type t = S.t

  let empty = S.empty
  let is_empty = S.is_empty
  let mem = S.mem
  let add = S.add
  let remove = S.remove
  let singleton = S.singleton
  let cardinal = S.cardinal
  let union = S.union
  let diff = S.diff
  let equal = S.equal
  let of_list = S.of_list
  let to_list = S.elements
  let filter = S.filter
  let for_all = S.for_all
  let fold = S.fold

  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (S.elements s)
end

module Rel = struct
  module Pair = struct
    type t = int * int

    let compare (a1, b1) (a2, b2) =
      match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
  end

  module S = Set.Make (Pair)

  type t = S.t

  let empty = S.empty
  let is_empty = S.is_empty
  let mem x y r = S.mem (x, y) r
  let add x y r = S.add (x, y) r
  let of_list l = S.of_list l
  let to_list = S.elements

  let init n f =
    let rec go x acc =
      if x < 0 then acc else go (x - 1) (Iset.fold (fun y acc -> S.add (x, y) acc) (f x) acc)
    in
    go (n - 1) S.empty
  let union = S.union
  let union_all rs = List.fold_left S.union S.empty rs
  let inter = S.inter
  let equal = S.equal
  let subset = S.subset

  let fold f r acc = S.fold (fun (x, y) acc -> f x y acc) r acc
  let filter p r = S.filter (fun (x, y) -> p x y) r

  let domain r = fold (fun x _ acc -> Iset.add x acc) r Iset.empty
  let codomain r = fold (fun _ y acc -> Iset.add y acc) r Iset.empty
  let elements r = Iset.union (domain r) (codomain r)

  let succs r x = fold (fun a b acc -> if a = x then Iset.add b acc else acc) r Iset.empty
  let preds r y = fold (fun a b acc -> if b = y then Iset.add a acc else acc) r Iset.empty

  let compose r s =
    (* Index s by its domain for a one-pass join. *)
    let by_dom = Hashtbl.create 16 in
    S.iter (fun (y, z) -> Hashtbl.add by_dom y z) s;
    S.fold
      (fun (x, y) acc ->
        List.fold_left (fun acc z -> S.add (x, z) acc) acc (Hashtbl.find_all by_dom y))
      r S.empty

  let sequence = function
    | [] -> invalid_arg "Rel.sequence: empty list"
    | r :: rs -> List.fold_left compose r rs

  let inverse r = S.fold (fun (x, y) acc -> S.add (y, x) acc) r S.empty
  let map f r = S.map (fun (x, y) -> (f x, f y)) r

  let id s = Iset.fold (fun x acc -> S.add (x, x) acc) s S.empty

  let cross a b =
    Iset.fold (fun x acc -> Iset.fold (fun y acc -> S.add (x, y) acc) b acc) a S.empty

  let restrict a r b = S.filter (fun (x, y) -> Iset.mem x a && Iset.mem y b) r

  let transitive_closure r =
    let rec fix r =
      let r' = union r (compose r r) in
      if equal r r' then r else fix r'
    in
    fix r

  let irreflexive r = not (S.exists (fun (x, y) -> x = y) r)
  let acyclic r = irreflexive (transitive_closure r)
  let minus_id r = S.filter (fun (x, y) -> x <> y) r

  let is_strict_total_order_on s r =
    let r = restrict s r s in
    irreflexive (transitive_closure r)
    && Iset.for_all
         (fun x -> Iset.for_all (fun y -> x = y || mem x y r || mem y x r) s)
         s

  let immediate r =
    S.filter
      (fun (x, y) -> not (S.exists (fun (a, b) -> a = x && mem b y r && b <> y && b <> x) r))
      r

  let linear_extensions s r =
    let r = transitive_closure (restrict s r s) in
    if not (irreflexive r) then []
    else
      (* Enumerate topological orders by repeatedly picking a minimal
         element among the remaining ones. *)
      let rec go remaining prefix acc =
        if Iset.is_empty remaining then List.rev prefix :: acc
        else
          Iset.fold
            (fun x acc ->
              let minimal =
                Iset.for_all (fun y -> y = x || not (mem y x r)) remaining
              in
              if minimal then go (Iset.remove x remaining) (x :: prefix) acc
              else acc)
            remaining acc
      in
      let orders = go s [] [] in
      let order_to_rel order =
        let rec pairs acc = function
          | [] -> acc
          | x :: rest ->
              pairs (List.fold_left (fun acc y -> add x y acc) acc rest) rest
        in
        pairs empty order
      in
      List.map order_to_rel orders

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
    List.fold_left
      (fun acc x -> match acc with Some _ -> acc | None -> dfs [] x)
      None
      (Iset.to_list (elements r))

  let pp ppf r =
    let pp_pair ppf (x, y) = Fmt.pf ppf "(%d,%d)" x y in
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_pair) (to_list r)
end

module Relalg = struct
  module Iset = Iset
  module Rel = Rel
end

module Event = Axiom.Event

module Execution = struct
  type t = {
    events : Event.t list;
    po : Rel.t;
    rf : Rel.t;
    co : Rel.t;
    rmw_plain : Rel.t;
    amo : Rel.t;
    lxsx : Rel.t;
    data : Rel.t;
    ctrl : Rel.t;
    addr : Rel.t;
  }

  let empty =
    {
      events = [];
      po = Rel.empty;
      rf = Rel.empty;
      co = Rel.empty;
      rmw_plain = Rel.empty;
      amo = Rel.empty;
      lxsx = Rel.empty;
      data = Rel.empty;
      ctrl = Rel.empty;
      addr = Rel.empty;
    }

  let find x id =
    match List.find_opt (fun (e : Event.t) -> e.id = id) x.events with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Execution.find: no event %d" id)

  (* The label predicates [select] used, which lib/axiom no longer
     needs. *)
  let is_fence_kind k (e : Event.t) =
    match e.label with Fence f -> f = k | Read _ | Write _ -> false

  let read_ord (e : Event.t) = match e.label with Read { ord; _ } -> Some ord | _ -> None
  let write_ord (e : Event.t) = match e.label with Write { ord; _ } -> Some ord | _ -> None

  let select p x =
    List.fold_left
      (fun acc (e : Event.t) -> if p e then Iset.add e.id acc else acc)
      Iset.empty x.events

  let reads x = select Event.is_read x
  let writes x = select Event.is_write x
  let mems x = select Event.is_mem x
  let fences x k = select (is_fence_kind k) x
  let acq_reads x = select (fun e -> read_ord e = Some Event.R_acq) x
  let acq_pc_reads x = select (fun e -> read_ord e = Some Event.R_acq_pc) x
  let rel_writes x = select (fun e -> write_ord e = Some Event.W_rel) x
  let sc_reads x = select (fun e -> read_ord e = Some Event.R_sc) x
  let sc_writes x = select (fun e -> write_ord e = Some Event.W_sc) x
  let rmw x = Rel.union_all [ x.rmw_plain; x.amo; x.lxsx ]

  let same_loc x a b =
    match (Event.loc (find x a), Event.loc (find x b)) with
    | Some la, Some lb -> la = lb
    | _ -> false

  let po_loc x = Rel.filter (same_loc x) x.po

  (* fr = rf⁻¹; co *)
  let fr x = Rel.compose (Rel.inverse x.rf) x.co

  let internal x a b =
    let ea = find x a and eb = find x b in
    ea.tid = eb.tid && not (Event.is_init ea)

  let external_part x r = Rel.filter (fun a b -> not (internal x a b)) r
  let internal_part x r = Rel.filter (internal x) r
  let rfe x = external_part x x.rf
  let rfi x = internal_part x x.rf
  let coe x = external_part x x.co
  let fre x = external_part x (fr x)

  let well_formed x =
    let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
    let err fmt = Format.kasprintf (fun s -> Error s) fmt in
    let* () =
      (* Every read has exactly one rf source, matching loc and value. *)
      List.fold_left
        (fun acc (e : Event.t) ->
          let* () = acc in
          if not (Event.is_read e) then Ok ()
          else
            let srcs = Iset.to_list (Rel.preds x.rf e.id) in
            match srcs with
            | [ w ] ->
                let we = find x w in
                if not (Event.is_write we) then err "rf source %d is not a write" w
                else if Event.loc we <> Event.loc e then
                  err "rf source %d has wrong location for read %d" w e.id
                else if Event.value we <> Event.value e then
                  err "rf source %d has wrong value for read %d" w e.id
                else Ok ()
            | [] -> err "read %d has no rf source" e.id
            | _ -> err "read %d has several rf sources" e.id)
        (Ok ()) x.events
    in
    let* () =
      (* co is a strict total order per location, init writes first. *)
      let locs =
        List.filter_map (fun e -> if Event.is_write e then Event.loc e else None)
          x.events
        |> List.sort_uniq String.compare
      in
      List.fold_left
        (fun acc l ->
          let* () = acc in
          let ws =
            select (fun e -> Event.is_write e && Event.loc e = Some l) x
          in
          if not (Rel.is_strict_total_order_on ws (Rel.restrict ws x.co ws)) then
            err "co is not a strict total order on %s" l
          else
            let inits = Iset.filter (fun w -> Event.is_init (find x w)) ws in
            let non_inits = Iset.diff ws inits in
            if
              Iset.for_all
                (fun i -> Iset.for_all (fun w -> Rel.mem i w x.co) non_inits)
                inits
            then Ok ()
            else err "an init write of %s is not co-minimal" l)
        (Ok ()) locs
    in
    let* () =
      (* rmw pairs: immediate-po, same-location read/write. *)
      Rel.fold
        (fun r w acc ->
          let* () = acc in
          let er = find x r and ew = find x w in
          if not (Event.is_read er && Event.is_write ew) then
            err "rmw pair (%d,%d) is not read→write" r w
          else if not (same_loc x r w) then
            err "rmw pair (%d,%d) not same-location" r w
          else if not (Rel.mem r w x.po) then err "rmw pair (%d,%d) not po" r w
          else Ok ())
        (rmw x) (Ok ())
    in
    Ok ()

  let behaviour x =
    let ws = writes x in
    let finals =
      Iset.fold
        (fun w acc ->
          (* co-maximal: no same-location co-successor. *)
          if Iset.is_empty (Rel.succs x.co w) then
            let e = find x w in
            match (Event.loc e, Event.value e) with
            | Some l, Some v -> (l, v) :: acc
            | _ -> acc
          else acc)
        ws []
    in
    List.sort compare finals

  let pp ppf x =
    Fmt.pf ppf "@[<v>events:@,%a@,po=%a@,rf=%a@,co=%a@]"
      (Fmt.list ~sep:Fmt.cut Event.pp)
      x.events Rel.pp x.po Rel.pp x.rf Rel.pp x.co
end
