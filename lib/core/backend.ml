module Op = Tcg.Op
module A = Arm.Insn
module E = Axiom.Event
module S = Mapping.Schemes

exception Register_pressure of int64

(* X29/X30 (fp/lr) are unused by translated code: safe backend
   scratches.  X0-X17 hold pinned guest state; X19-X28 are the
   allocatable pool. *)
let scratch0 = 29
let scratch1 = 30
let pool = [| 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 |]
let npool = Array.length pool

(* The register allocator's tables, the calling domain's, reused
   across blocks ({!Tcg.Work}). *)
let last_uses : int Tcg.Work.table = Tcg.Work.table ()
let mappings : int Tcg.Work.table = Tcg.Work.table ()
let frees : int Tcg.Work.table = Tcg.Work.table ()
let active_temps : int Tcg.Work.table = Tcg.Work.table ()
let active_regs : int Tcg.Work.table = Tcg.Work.table ()

(* An op's temps: k = -1 is its write, then its reads. *)
let temp op k = if k < 0 then Op.write op else Op.read op k

(* Linear-scan allocation of block-local temps into the pool, freeing a
   register after its temp's last use.  [active] lists the live
   (temp, register) pairs oldest first; expired registers go back on
   the [free] stack newest first, so the oldest expired is reused
   first.  Returns the mapping: [map.(t)] is local temp [t]'s register
   for [t < bound], or -1. *)
let allocate_temps (ops : Op.t array) bound =
  let last_use = Tcg.Work.get last_uses bound (-1) in
  for i = 0 to Array.length ops - 1 do
    for k = -1 to Op.nreads ops.(i) - 1 do
      let t = temp ops.(i) k in
      if t >= Op.first_local then last_use.(t) <- i
    done
  done;
  let mapping = Tcg.Work.get mappings bound (-1) in
  (* [free.(0 .. nfree - 1)], top last: the pool's first register on top. *)
  let free = Tcg.Work.reserve frees npool 0 in
  for k = 0 to npool - 1 do
    free.(k) <- pool.(npool - 1 - k)
  done;
  let nfree = ref npool in
  let active_t = Tcg.Work.reserve active_temps npool 0
  and active_r = Tcg.Work.reserve active_regs npool 0 in
  let nactive = ref 0 in
  for i = 0 to Array.length ops - 1 do
    (* Free temps whose last use has passed. *)
    for k = !nactive - 1 downto 0 do
      if last_use.(active_t.(k)) < i then begin
        free.(!nfree) <- active_r.(k);
        incr nfree
      end
    done;
    let live = ref 0 in
    for k = 0 to !nactive - 1 do
      if last_use.(active_t.(k)) >= i then begin
        active_t.(!live) <- active_t.(k);
        active_r.(!live) <- active_r.(k);
        incr live
      end
    done;
    nactive := !live;
    for k = -1 to Op.nreads ops.(i) - 1 do
      let t = temp ops.(i) k in
      if t >= Op.first_local && mapping.(t) < 0 then begin
        if !nfree = 0 then raise (Register_pressure 0L);
        decr nfree;
        let r = free.(!nfree) in
        mapping.(t) <- r;
        active_t.(!nactive) <- t;
        active_r.(!nactive) <- r;
        incr nactive
      end
    done
  done;
  mapping

let binop_alu : Op.binop -> A.alu = function
  | Op.Add -> A.Add
  | Op.Sub -> A.Sub
  | Op.And -> A.And
  | Op.Or -> A.Orr
  | Op.Xor -> A.Eor
  | Op.Shl -> A.Lsl
  | Op.Shr -> A.Lsr
  | Op.Mul -> A.Mul

let cc_of_cond : Op.cond -> A.cc = function
  | Op.Eq -> A.Eq
  | Op.Ne -> A.Ne
  | Op.Lt -> A.Lt
  | Op.Le -> A.Le
  | Op.Gt -> A.Gt
  | Op.Ge -> A.Ge
  | Op.Ltu -> A.Lo
  | Op.Leu -> A.Ls
  | Op.Gtu -> A.Hi
  | Op.Geu -> A.Hs

(* Shared host operands: immutable, built once, so lowering a block
   allocates no register operand, register option or barrier. *)
let nregs = 32
let reg_operands = Array.init nregs (fun r -> A.R r)
let some_regs = Array.init nregs Option.some
let operand r = if r >= 0 && r < nregs then reg_operands.(r) else A.R r
let some_reg r = if r >= 0 && r < nregs then some_regs.(r) else Some r

(* The barrier a TCG fence lowers to, if any (Figure 7b). *)
let dmb (config : Config.t) f =
  match S.(lower_fence (lowering config.fences)) f with
  | Some E.F_dmb_full -> Some (A.Dmb A.Full)
  | Some E.F_dmb_ld -> Some (A.Dmb A.Ld)
  | Some E.F_dmb_st -> Some (A.Dmb A.St)
  | Some _ -> Some (A.Dmb A.Full)
  | None -> None

(* Host instructions per step of the RMW table's sequence. *)
let rec rmw_length op = function
  | [] -> 0
  | S.Dmb_full :: rest -> 1 + rmw_length op rest
  | S.Amo _ :: rest -> (match op with `Cas -> 3 | `Xadd | `Xchg -> 1) + rmw_length op rest
  | S.Exclusive _ :: rest ->
      (match op with `Cas -> 5 | `Xadd | `Xchg -> 4) + rmw_length op rest

(* The host code under construction, sized exactly before it is
   filled.  [label_at.(l)] is the instruction index TCG label [l]
   lowers to, known before any branch to it is emitted. *)
type code = {
  config : Config.t;
  guest_pc : int64;
  map : int array;  (* from [allocate_temps] *)
  bound : int;
  insns : A.t array;
  mutable len : int;
  label_at : int array;
}

let reg c t =
  if t < Op.nb_globals then t
  else if t < c.bound && c.map.(t) >= 0 then c.map.(t)
  else raise (Register_pressure (Int64.of_int t))

(* Helper arguments: the op's own list when every temp is a pinned
   global, which the backend maps to itself. *)
let rec maps_to_self c = function [] -> true | t :: rest -> reg c t = t && maps_to_self c rest
let rec map_regs c = function [] -> [] | t :: rest -> let r = reg c t in r :: map_regs c rest
let regs c ts = if maps_to_self c ts then ts else map_regs c ts
let ret_reg c = function None -> None | Some t -> some_reg (reg c t)

let ins c i =
  c.insns.(c.len) <- i;
  c.len <- c.len + 1

let label c l =
  if l >= 0 && l < Array.length c.label_at && c.label_at.(l) >= 0 then c.label_at.(l)
  else
    Fault.raise_ ~pc:c.guest_pc Fault.Backend_fault (Printf.sprintf "unresolved label %d" l)

(* Host instructions an op lowers to; an RMW under a helper lowering
   (the frontend calls the helper instead) is a fault. *)
let length (config : Config.t) ~pc op =
  match op with
  | Op.Movi _ | Op.Mov _ | Op.Binop _ | Op.Binopi _ | Op.Ld _ | Op.St _ | Op.Br _
  | Op.Call _ | Op.Host_call _ | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ ->
      1
  | Op.Mb (f, _, _) -> if Option.is_some (dmb config f) then 1 else 0
  | Op.Setcond _ | Op.Brcond _ -> 2
  | Op.Set_label _ -> 0
  | Op.Rmw { op; _ } ->
      if Option.is_some (S.rmw_helper config.rmw op) then
        Fault.raise_ ~pc Fault.Backend_fault "RMW op under helper RMW strategy";
      rmw_length op (S.rmw_sequence config.rmw op)

(* An RMW: the table's steps for the configured lowering. *)
let rec rmw c ~op ~old ~addr ~expect ~src = function
  | [] -> ()
  | step :: rest ->
      (match step with
      | S.Dmb_full -> ins c (A.Dmb A.Full)
      | S.Amo { acq; rel } -> (
          match op with
          | `Cas ->
              (* casal needs the compare value in the destination
                 register: stage through scratch, then move the old
                 value out. *)
              ins c (A.Mov (scratch0, reg c expect));
              ins c (A.Cas { acq; rel; cmp = scratch0; swap = reg c src; base = reg c addr });
              ins c (A.Mov (reg c old, scratch0))
          | `Xadd -> ins c (A.Ldadd { acq; rel; old = reg c old; src = reg c src; base = reg c addr })
          | `Xchg -> ins c (A.Swp { acq; rel; old = reg c old; src = reg c src; base = reg c addr }))
      | S.Exclusive { acq; rel } ->
          (* retry: ldxr; <value>; stxr; cbnz retry.  A cas's value is
             [cmp; b.ne done], done being past the cbnz. *)
          let retry = c.len in
          ins c (if acq then A.Ldaxr (reg c old, reg c addr) else A.Ldxr (reg c old, reg c addr));
          let value =
            match op with
            | `Cas ->
                ins c (A.Cmp (reg c old, operand (reg c expect)));
                ins c (A.Bcc (A.Ne, retry + 5));
                reg c src
            | `Xadd ->
                ins c (A.Alu (A.Add, scratch0, reg c old, operand (reg c src)));
                scratch0
            | `Xchg ->
                ins c (A.Mov (scratch0, reg c src));
                scratch0
          in
          ins c
            (if rel then A.Stlxr (scratch1, value, reg c addr)
             else A.Stxr (scratch1, value, reg c addr));
          ins c (A.Cbnz (scratch1, retry)));
      rmw c ~op ~old ~addr ~expect ~src rest

let lower c op =
  match op with
  | Op.Movi (d, v) -> ins c (A.Movz (reg c d, v))
  | Op.Mov (d, s) -> ins c (A.Mov (reg c d, reg c s))
  | Op.Binop (bop, d, a, b) -> ins c (A.Alu (binop_alu bop, reg c d, reg c a, operand (reg c b)))
  | Op.Binopi (bop, d, a, imm) -> ins c (A.Alu (binop_alu bop, reg c d, reg c a, A.I imm))
  | Op.Ld (d, base, off) -> ins c (A.Ldr (reg c d, reg c base, off))
  | Op.St (s, base, off) -> ins c (A.Str (reg c s, reg c base, off))
  | Op.Mb (f, _, _) -> ( match dmb c.config f with Some i -> ins c i | None -> ())
  | Op.Setcond (cond, d, a, b) ->
      ins c (A.Cmp (reg c a, operand (reg c b)));
      ins c (A.Cset (reg c d, cc_of_cond cond))
  | Op.Brcond (cond, a, b, l) ->
      ins c (A.Cmp (reg c a, operand (reg c b)));
      ins c (A.Bcc (cc_of_cond cond, label c l))
  | Op.Set_label _ -> ()
  | Op.Br l -> ins c (A.B (label c l))
  | Op.Rmw { op; old; addr; expect; src } ->
      rmw c ~op ~old ~addr ~expect ~src (S.rmw_sequence c.config.rmw op)
  | Op.Call (f, args, ret) ->
      ins c (A.Blr_helper (f, regs c args, ret_reg c ret))
  | Op.Host_call { func; args; ret } ->
      ins c (A.Host_call { func; args = regs c args; ret = ret_reg c ret })
  | Op.Goto_tb pc -> ins c (A.Goto_tb pc)
  | Op.Goto_ptr t -> ins c (A.Goto_ptr (reg c t))
  | Op.Exit_halt -> ins c A.Exit_halt
  | Op.Trap (kind, context) -> ins c (A.Trap { kind; context })

(* Two passes over the ops: the first sizes the code and places every
   label, the second fills the code with branches already resolved. *)
let compile (config : Config.t) (b : Tcg.Block.t) =
  let ops = b.Tcg.Block.ops and pc = b.Tcg.Block.guest_pc in
  let bound = Op.temp_bound ops in
  let map =
    try allocate_temps ops bound with Register_pressure _ -> raise (Register_pressure pc)
  in
  let label_at = Array.make (Array.length b.Tcg.Block.labels) (-1) in
  let len = ref 0 in
  for i = 0 to Array.length ops - 1 do
    (match ops.(i) with Op.Set_label l when l >= 0 -> label_at.(l) <- !len | _ -> ());
    len := !len + length config ~pc ops.(i)
  done;
  let c =
    { config; guest_pc = pc; map; bound; insns = Array.make !len A.Exit_halt; len = 0; label_at }
  in
  Array.iter (lower c) ops;
  c.insns
