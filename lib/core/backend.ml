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
let pool = [ 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 ]

(* Linear-scan allocation of block-local temps into the pool, freeing a
   register after its temp's last use.  [active] lists the live
   (temp, register) pairs oldest first; expired registers go back on
   the [free] stack newest first, so the oldest expired is reused
   first. *)
let allocate_temps (ops : Op.t array) =
  let bound = Op.temp_bound ops in
  let last_use = Array.make bound (-1) in
  let at = ref 0 in
  let use t = if t >= Op.first_local then last_use.(t) <- !at in
  Array.iteri
    (fun i op ->
      at := i;
      use (Op.write op);
      Op.iter_reads use op)
    ops;
  let mapping = Array.make bound (-1) in
  let pool = Array.of_list pool in
  let npool = Array.length pool in
  (* [free.(0 .. nfree - 1)], top last: the pool's first register on top. *)
  let free = Array.init npool (fun k -> pool.(npool - 1 - k)) in
  let nfree = ref npool in
  let active_t = Array.make npool 0 and active_r = Array.make npool 0 in
  let nactive = ref 0 in
  let assign t =
    if t >= Op.first_local && mapping.(t) < 0 then begin
      if !nfree = 0 then raise (Register_pressure 0L);
      decr nfree;
      let r = free.(!nfree) in
      mapping.(t) <- r;
      active_t.(!nactive) <- t;
      active_r.(!nactive) <- r;
      incr nactive
    end
  in
  Array.iteri
    (fun i op ->
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
      assign (Op.write op);
      Op.iter_reads assign op)
    ops;
  fun t ->
    if t < Op.nb_globals then t
    else if t < bound && mapping.(t) >= 0 then mapping.(t)
    else raise (Register_pressure (Int64.of_int t))

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

let barrier_of_fence (config : Config.t) f =
  match S.(lower_fence (lowering config.fences)) f with
  | Some E.F_dmb_full -> Some A.Full
  | Some E.F_dmb_ld -> Some A.Ld
  | Some E.F_dmb_st -> Some A.St
  | Some _ -> Some A.Full
  | None -> None

(* The host code under construction; branches to TCG labels are
   emitted with the label as their target and patched once every label
   has an instruction index. *)
type code = { mutable insns : A.t array; mutable len : int }

let compile (config : Config.t) (b : Tcg.Block.t) =
  let reg =
    try allocate_temps b.Tcg.Block.ops
    with Register_pressure _ -> raise (Register_pressure b.Tcg.Block.guest_pc)
  in
  let code =
    { insns = Array.make ((2 * Array.length b.Tcg.Block.ops) + 8) A.Exit_halt; len = 0 }
  in
  let label_at = Array.make (Array.length b.Tcg.Block.labels) (-1) in
  let fixups = ref [] in
  let ins i =
    if code.len = Array.length code.insns then begin
      let bigger = Array.make (2 * code.len) A.Exit_halt in
      Array.blit code.insns 0 bigger 0 code.len;
      code.insns <- bigger
    end;
    code.insns.(code.len) <- i;
    code.len <- code.len + 1
  in
  let branch_to_label i =
    fixups := code.len :: !fixups;
    ins i
  in
  (* An RMW: the table's steps for the configured lowering.  Under a
     helper lowering the frontend calls the helper instead, so an RMW op
     here is a fault. *)
  let rmw ~op ~old ~addr ~expect ~src =
    if Option.is_some (S.rmw_helper config.rmw op) then
      Fault.raise_ ~pc:b.Tcg.Block.guest_pc Fault.Backend_fault
        "RMW op under helper RMW strategy";
    List.iter
      (function
        | S.Dmb_full -> ins (A.Dmb A.Full)
        | S.Amo { acq; rel } -> (
            match op with
            | `Cas ->
                (* casal needs the compare value in the destination
                   register: stage through scratch, then move the old
                   value out. *)
                ins (A.Mov (scratch0, reg expect));
                ins (A.Cas { acq; rel; cmp = scratch0; swap = reg src; base = reg addr });
                ins (A.Mov (reg old, scratch0))
            | `Xadd -> ins (A.Ldadd { acq; rel; old = reg old; src = reg src; base = reg addr })
            | `Xchg -> ins (A.Swp { acq; rel; old = reg old; src = reg src; base = reg addr }))
        | S.Exclusive { acq; rel } ->
            (* retry: ldxr; <value>; stxr; cbnz retry.  A cas's value is
               [cmp; b.ne done], done being past the cbnz. *)
            let retry = code.len in
            ins (if acq then A.Ldaxr (reg old, reg addr) else A.Ldxr (reg old, reg addr));
            let value =
              match op with
              | `Cas ->
                  ins (A.Cmp (reg old, A.R (reg expect)));
                  ins (A.Bcc (A.Ne, retry + 5));
                  reg src
              | `Xadd ->
                  ins (A.Alu (A.Add, scratch0, reg old, A.R (reg src)));
                  scratch0
              | `Xchg ->
                  ins (A.Mov (scratch0, reg src));
                  scratch0
            in
            ins
              (if rel then A.Stlxr (scratch1, value, reg addr)
               else A.Stxr (scratch1, value, reg addr));
            ins (A.Cbnz (scratch1, retry)))
      (S.rmw_sequence config.rmw op)
  in
  Array.iter
    (fun op ->
      match op with
      | Op.Movi (d, v) -> ins (A.Movz (reg d, v))
      | Op.Mov (d, s) -> ins (A.Mov (reg d, reg s))
      | Op.Binop (bop, d, a, b') ->
          ins (A.Alu (binop_alu bop, reg d, reg a, A.R (reg b')))
      | Op.Binopi (bop, d, a, imm) ->
          ins (A.Alu (binop_alu bop, reg d, reg a, A.I imm))
      | Op.Ld (d, base, off) -> ins (A.Ldr (reg d, reg base, off))
      | Op.St (s, base, off) -> ins (A.Str (reg s, reg base, off))
      | Op.Mb (f, _) -> (
          match barrier_of_fence config f with
          | Some b' -> ins (A.Dmb b')
          | None -> ())
      | Op.Setcond (c, d, a, b') ->
          ins (A.Cmp (reg a, A.R (reg b')));
          ins (A.Cset (reg d, cc_of_cond c))
      | Op.Brcond (c, a, b', l) ->
          ins (A.Cmp (reg a, A.R (reg b')));
          branch_to_label (A.Bcc (cc_of_cond c, l))
      | Op.Set_label l -> if l >= 0 then label_at.(l) <- code.len
      | Op.Br l -> branch_to_label (A.B l)
      | Op.Rmw { op; old; addr; expect; src } -> rmw ~op ~old ~addr ~expect ~src
      | Op.Call (f, args, ret) ->
          ins (A.Blr_helper (f, List.map reg args, Option.map reg ret))
      | Op.Host_call { func; args; ret } ->
          ins (A.Host_call { func; args = List.map reg args; ret = Option.map reg ret })
      | Op.Goto_tb pc -> ins (A.Goto_tb pc)
      | Op.Goto_ptr t -> ins (A.Goto_ptr (reg t))
      | Op.Exit_halt -> ins A.Exit_halt
      | Op.Trap (kind, context) -> ins (A.Trap { kind; context }))
    b.Tcg.Block.ops;
  (* Resolve the label branches to instruction indices, in code order. *)
  let resolve l =
    if l >= 0 && l < Array.length label_at && label_at.(l) >= 0 then label_at.(l)
    else
      Fault.raise_ ~pc:b.Tcg.Block.guest_pc Fault.Backend_fault
        (Printf.sprintf "unresolved label %d" l)
  in
  List.iter
    (fun at ->
      code.insns.(at) <-
        (match code.insns.(at) with
        | A.B l -> A.B (resolve l)
        | A.Bcc (cc, l) -> A.Bcc (cc, resolve l)
        | i -> i))
    (List.rev !fixups);
  Array.sub code.insns 0 code.len
