module T = Mapping.Transform

(* Per fence kind: may the rule cross it? *)
let crossing rule =
  let t = Array.make Axiom.Event.fence_kinds false in
  List.iter (fun f -> t.(Axiom.Event.fence_index f) <- true) (T.crossable rule);
  t

let raw_cross = crossing T.F_raw
let waw_cross = crossing T.F_waw
let rar_cross = crossing T.F_rar

type key = { base : Op.temp; base_ver : int; off : int64 }

let same_key a b = a.base = b.base && a.base_ver = b.base_ver && Int64.equal a.off b.off

type store_entry = {
  s_key : key;
  s_idx : int;
  value : Op.temp;
  value_ver : int;
  mutable raw_ok : bool;
  mutable waw_ok : bool;
}

type load_entry = { l_key : key; dst : Op.temp; dst_ver : int; mutable rar_ok : bool }

(* A table holds at most one entry per key, and a straight-line segment
   tracks a few: each table is the first [n] slots of an array,
   searched linearly. *)
type 'e table = { mutable slots : 'e array; mutable n : int; key : 'e -> key }

let find t k =
  let r = ref (-1) in
  for i = 0 to t.n - 1 do
    if same_key (t.key t.slots.(i)) k then r := i
  done;
  !r

let replace t k e =
  match find t k with
  | -1 ->
      t.slots.(t.n) <- e;
      t.n <- t.n + 1
  | i -> t.slots.(i) <- e

(* Remove entries that may alias [k] (different base identity), and the
   entry for [k] itself. *)
let invalidate_aliases t k =
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let k' = t.key t.slots.(i) in
    if k'.base = k.base && k'.base_ver = k.base_ver && not (Int64.equal k'.off k.off)
    then begin
      t.slots.(!j) <- t.slots.(i);
      incr j
    end
  done;
  t.n <- !j

let versions : int Work.table = Work.table ()
let deleted : int Work.table = Work.table ()
let no_key = { base = -1; base_ver = 0; off = 0L }

let store_slots : store_entry Work.table = Work.table ()
let load_slots : load_entry Work.table = Work.table ()

let no_store =
  { s_key = no_key; s_idx = -1; value = -1; value_ver = 0; raw_ok = false; waw_ok = false }

let no_load = { l_key = no_key; dst = -1; dst_ver = 0; rar_ok = false }

let rewrite (w : Work.t) =
  let ops = w.ops in
  let ver = Work.get versions w.ntemps 0 in
  let dead = Work.get deleted w.len 0 in
  let stores =
    { slots = Work.reserve store_slots w.len no_store; n = 0; key = (fun e -> e.s_key) }
  in
  let loads =
    { slots = Work.reserve load_slots w.len no_load; n = 0; key = (fun e -> e.l_key) }
  in
  let bump t = if t <> Op.no_temp then ver.(t) <- ver.(t) + 1 in
  (* Replace the load at [i] into [d] by a copy from [src]. *)
  let forward i d src =
    if src = d then dead.(i) <- 1 else ops.(i) <- Op.Mov (d, src);
    bump d
  in
  let clear_all () =
    stores.n <- 0;
    loads.n <- 0
  in
  for i = 0 to w.len - 1 do
    match ops.(i) with
    | Op.Set_label _ | Op.Br _ | Op.Brcond _ -> clear_all ()
    | Op.Mb (f, _) ->
        let kind = Axiom.Event.fence_index f in
        for k = 0 to stores.n - 1 do
          let e = stores.slots.(k) in
          if not raw_cross.(kind) then e.raw_ok <- false;
          if not waw_cross.(kind) then e.waw_ok <- false
        done;
        if not rar_cross.(kind) then
          for k = 0 to loads.n - 1 do
            loads.slots.(k).rar_ok <- false
          done
    | Op.Ld (d, b, off) -> (
        let k = { base = b; base_ver = ver.(b); off } in
        let si = find stores k in
        let se = if si >= 0 then stores.slots.(si) else no_store in
        if si >= 0 && se.raw_ok && se.value_ver = ver.(se.value) then forward i d se.value
        else
          match find loads k with
          | li when li >= 0 && loads.slots.(li).rar_ok
                    && loads.slots.(li).dst_ver = ver.(loads.slots.(li).dst) ->
              forward i d loads.slots.(li).dst
          | _ ->
              (* A surviving real load of this address pins any tracked
                 older store (cannot WAW-delete it). *)
              if si >= 0 then se.waw_ok <- false;
              bump d;
              replace loads k { l_key = k; dst = d; dst_ver = ver.(d); rar_ok = true })
    | Op.St (v, b, off) ->
        let k = { base = b; base_ver = ver.(b); off } in
        (match find stores k with
        | si when si >= 0 && stores.slots.(si).waw_ok -> dead.(stores.slots.(si).s_idx) <- 1
        | _ -> ());
        invalidate_aliases stores k;
        invalidate_aliases loads k;
        replace stores k
          { s_key = k; s_idx = i; value = v; value_ver = ver.(v); raw_ok = true; waw_ok = true }
    | (Op.Rmw _ | Op.Call _ | Op.Host_call _) as op ->
        clear_all ();
        bump (Op.write op)
    | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> ()
    | (Op.Movi _ | Op.Mov _ | Op.Binop _ | Op.Binopi _ | Op.Setcond _) as op ->
        bump (Op.write op)
  done;
  Work.compact w dead

let run ops =
  let w = Work.of_array ops in
  rewrite w;
  Work.contents w
