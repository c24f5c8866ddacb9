let removable op =
  Op.is_pure op || match op with Op.Ld _ -> true | _ -> false

let exits_block = function
  | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> true
  | _ -> false

(* Per temp: read anywhere in the block (strategy 1) / live at the
   current point of the backward scan (strategy 2); 0 or 1. *)
let read_tbl : int Work.table = Work.table ()
let live_tbl : int Work.table = Work.table ()
let deleted : int Work.table = Work.table ()

(* Strategy 1: remove pure ops whose destination temp is local and never
   read anywhere in the block. *)
let drop_unread_locals (w : Work.t) =
  let read = Work.get read_tbl w.ntemps 0 in
  for i = 0 to w.len - 1 do
    for k = 0 to Op.nreads w.ops.(i) - 1 do
      read.(Op.read w.ops.(i) k) <- 1
    done
  done;
  let j = ref 0 in
  for i = 0 to w.len - 1 do
    let op = w.ops.(i) in
    let d = Op.write op in
    if not (removable op && d >= Op.nb_globals && read.(d) = 0) then begin
      w.ops.(!j) <- op;
      incr j
    end
  done;
  w.len <- !j

(* Strategy 2 (straight-line only): backward liveness.  Block exits make
   every global live (the next block reads them); helper calls only read
   their explicit arguments. *)
let drop_dead_straightline (w : Work.t) =
  let live = Work.get live_tbl w.ntemps 0 in
  let dead = Work.get deleted w.len 0 in
  for i = w.len - 1 downto 0 do
    let op = w.ops.(i) in
    let d = Op.write op in
    if removable op && live.(d) = 0 then dead.(i) <- 1
    else begin
      if d <> Op.no_temp then live.(d) <- 0;
      for k = 0 to Op.nreads op - 1 do
        live.(Op.read op k) <- 1
      done;
      if exits_block op then Array.fill live 0 Op.nb_globals 1
    end
  done;
  Work.compact w dead

let has_control (w : Work.t) =
  let control = ref false in
  for i = 0 to w.len - 1 do
    match w.ops.(i) with
    | Op.Set_label _ | Op.Br _ | Op.Brcond _ -> control := true
    | _ -> ()
  done;
  !control

(* Strategy 1 never removes control flow, so the block it leaves is
   straight-line exactly when the block was.  In straight-line code
   strategy 2 alone does both: a local nothing reads is never live, and
   dropping it adds none of its reads. *)
let rewrite w = if has_control w then drop_unread_locals w else drop_dead_straightline w
