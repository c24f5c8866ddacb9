module T = Mapping.Transform

(* Per fence kind: may the rule cross it? *)
let crossing rule =
  let t = Array.make Axiom.Event.fence_kinds false in
  List.iter (fun f -> t.(Axiom.Event.fence_index f) <- true) (T.crossable rule);
  t

let raw_cross = crossing T.F_raw
let waw_cross = crossing T.F_waw
let rar_cross = crossing T.F_rar

(* The tracked stores or loads: at most one entry per address, and a
   straight-line segment tracks a few, so a table is the first [n]
   slots of parallel arrays, searched linearly.  An address is (base
   temp, base version, offset); [off] holds the op's own boxed offset,
   so tracking an access allocates nothing.  [temp] and [temp_ver] are
   the stored value or the loaded destination, [idx] a store's op
   index, and [ok] the rules the entry may still serve (bits below).
   Each domain has its own pair of tables, grown on demand. *)
type tracked = {
  mutable n : int;
  mutable base : int array;
  mutable base_ver : int array;
  mutable off : int64 array;
  mutable temp : int array;
  mutable temp_ver : int array;
  mutable idx : int array;
  mutable ok : int array;
}

(* A store may still forward to a load (RAW) or die under a later store
   (WAW); a load may still forward to a later load (RAR). *)
let raw = 1
let waw = 2
let rar = 1

let tracked () =
  Domain.DLS.new_key (fun () ->
      { n = 0; base = [||]; base_ver = [||]; off = [||]; temp = [||]; temp_ver = [||];
        idx = [||]; ok = [||] })

let store_tbl = tracked ()
let load_tbl = tracked ()

(* Double [t]'s capacity (to at least 8), keeping its entries. *)
let grow t =
  let cap = max 8 (2 * Array.length t.base) in
  let more a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.base <- more t.base 0;
  t.base_ver <- more t.base_ver 0;
  t.off <- more t.off 0L;
  t.temp <- more t.temp 0;
  t.temp_ver <- more t.temp_ver 0;
  t.idx <- more t.idx 0;
  t.ok <- more t.ok 0

(* The slot of address (b, bv, off), or -1. *)
let find t b bv off =
  let r = ref (-1) in
  for i = 0 to t.n - 1 do
    if t.base.(i) = b && t.base_ver.(i) = bv && Int64.equal t.off.(i) off then r := i
  done;
  !r

(* Write an entry into slot [i], or append it when [i] is -1. *)
let put t i b bv off temp temp_ver idx ok =
  let i =
    if i >= 0 then i
    else begin
      if t.n = Array.length t.base then grow t;
      t.n <- t.n + 1;
      t.n - 1
    end
  in
  t.base.(i) <- b;
  t.base_ver.(i) <- bv;
  t.off.(i) <- off;
  t.temp.(i) <- temp;
  t.temp_ver.(i) <- temp_ver;
  t.idx.(i) <- idx;
  t.ok.(i) <- ok

(* Remove entries that may alias (b, bv, off) (different base
   identity), and the entry for that address itself. *)
let invalidate_aliases t b bv off =
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    if t.base.(i) = b && t.base_ver.(i) = bv && not (Int64.equal t.off.(i) off) then begin
      put t !j t.base.(i) bv t.off.(i) t.temp.(i) t.temp_ver.(i) t.idx.(i) t.ok.(i);
      incr j
    end
  done;
  t.n <- !j

(* Keep only the [mask] bits of every entry's flags. *)
let restrict t mask =
  for i = 0 to t.n - 1 do
    t.ok.(i) <- t.ok.(i) land mask
  done

let versions : int Work.table = Work.table ()
let deleted : int Work.table = Work.table ()

let bump ver t = if t <> Op.no_temp then ver.(t) <- ver.(t) + 1

(* Replace the load at [i] into [d] by a copy from [src]. *)
let forward (w : Work.t) dead ver i d src =
  if src = d then dead.(i) <- 1 else w.ops.(i) <- Op.Mov (d, src);
  bump ver d

(* Entry [i] of [t] may serve [rule] and its temp still holds the
   access's value. *)
let usable ver t i rule = i >= 0 && t.ok.(i) land rule <> 0 && t.temp_ver.(i) = ver.(t.temp.(i))

let rewrite (w : Work.t) =
  let ver = Work.get versions w.ntemps 0 in
  let dead = Work.get deleted w.len 0 in
  let stores = Domain.DLS.get store_tbl and loads = Domain.DLS.get load_tbl in
  stores.n <- 0;
  loads.n <- 0;
  for i = 0 to w.len - 1 do
    match w.ops.(i) with
    | Op.Set_label _ | Op.Br _ | Op.Brcond _ ->
        stores.n <- 0;
        loads.n <- 0
    | Op.Mb (f, _, _) ->
        let kind = Axiom.Event.fence_index f in
        restrict stores
          ((if raw_cross.(kind) then raw else 0) lor if waw_cross.(kind) then waw else 0);
        if not rar_cross.(kind) then restrict loads 0
    | Op.Ld (d, b, off) ->
        let bv = ver.(b) in
        let si = find stores b bv off in
        if usable ver stores si raw then forward w dead ver i d stores.temp.(si)
        else begin
          let li = find loads b bv off in
          if usable ver loads li rar then forward w dead ver i d loads.temp.(li)
          else begin
            (* A surviving real load of this address pins any tracked
               older store (cannot WAW-delete it). *)
            if si >= 0 then stores.ok.(si) <- stores.ok.(si) land lnot waw;
            bump ver d;
            put loads li b bv off d ver.(d) (-1) rar
          end
        end
    | Op.St (v, b, off) ->
        let bv = ver.(b) in
        let si = find stores b bv off in
        if si >= 0 && stores.ok.(si) land waw <> 0 then dead.(stores.idx.(si)) <- 1;
        invalidate_aliases stores b bv off;
        invalidate_aliases loads b bv off;
        put stores (-1) b bv off v ver.(v) i (raw lor waw)
    | (Op.Rmw _ | Op.Call _ | Op.Host_call _) as op ->
        stores.n <- 0;
        loads.n <- 0;
        bump ver (Op.write op)
    | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> ()
    | (Op.Movi _ | Op.Mov _ | Op.Binop _ | Op.Binopi _ | Op.Setcond _) as op ->
        bump ver (Op.write op)
  done;
  Work.compact w dead
