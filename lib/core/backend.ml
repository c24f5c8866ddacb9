module Op = Tcg.Op
module A = Arm.Insn
module E = Axiom.Event

exception Register_pressure of int64

(* X29/X30 (fp/lr) are unused by translated code: safe backend
   scratches.  X0-X17 hold pinned guest state; X19-X28 are the
   allocatable pool. *)
let scratch0 = 29
let scratch1 = 30
let pool = [ 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 ]

(* Linear-scan allocation of block-local temps into the pool, freeing a
   register after its temp's last use. *)
let allocate_temps ops =
  let last_use = Hashtbl.create 16 in
  List.iteri
    (fun i op ->
      List.iter
        (fun t -> if t >= Op.first_local then Hashtbl.replace last_use t i)
        (Op.reads op @ Op.writes op))
    ops;
  let mapping = Hashtbl.create 16 in
  let free = ref pool in
  let active = ref [] in
  List.iteri
    (fun i op ->
      (* Free temps whose last use has passed. *)
      let expired, still =
        List.partition (fun (t, _) -> Hashtbl.find last_use t < i) !active
      in
      active := still;
      List.iter (fun (_, r) -> free := r :: !free) expired;
      List.iter
        (fun t ->
          if t >= Op.first_local && not (Hashtbl.mem mapping t) then
            match !free with
            | r :: rest ->
                free := rest;
                Hashtbl.replace mapping t r;
                active := (t, r) :: !active
            | [] -> raise (Register_pressure 0L))
        (Op.writes op @ Op.reads op))
    ops;
  fun t ->
    if t < Op.nb_globals then t
    else
      match Hashtbl.find_opt mapping t with
      | Some r -> r
      | None -> raise (Register_pressure (Int64.of_int t))

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
  match Mapping.Schemes.(lower_fence (lowering config.fences)) f with
  | Some E.F_dmb_full -> Some A.Full
  | Some E.F_dmb_ld -> Some A.Ld
  | Some E.F_dmb_st -> Some A.St
  | Some _ -> Some A.Full
  | None -> None

(* Emission items: instructions, label definitions, and instructions
   whose branch target is a TCG label awaiting resolution. *)
type item =
  | I of A.t
  | L of int
  | Branch of (int -> A.t) * int  (* constructor applied to final index *)

let compile (config : Config.t) (b : Tcg.Block.t) =
  let reg =
    try allocate_temps b.Tcg.Block.ops
    with Register_pressure _ -> raise (Register_pressure b.Tcg.Block.guest_pc)
  in
  let items = ref [] in
  let next_backend_label = ref 1_000_000 in
  let emit it = items := it :: !items in
  let ins i = emit (I i) in
  let lower_cas ~old ~addr ~expect ~desired =
    match config.rmw with
    | Mapping.Schemes.Risotto_rmw1 ->
        (* casal needs the compare value in the destination register:
           stage through scratch, then move the old value out. *)
        ins (A.Mov (scratch0, reg expect));
        ins (A.Cas { acq = true; rel = true; cmp = scratch0; swap = reg desired; base = reg addr });
        ins (A.Mov (reg old, scratch0))
    | Mapping.Schemes.Risotto_rmw2 ->
        let retry = !next_backend_label in
        let done_ = !next_backend_label + 1 in
        next_backend_label := !next_backend_label + 2;
        ins (A.Dmb A.Full);
        emit (L retry);
        ins (A.Ldxr (reg old, reg addr));
        ins (A.Cmp (reg old, A.R (reg expect)));
        emit (Branch ((fun ix -> A.Bcc (A.Ne, ix)), done_));
        ins (A.Stxr (scratch1, reg desired, reg addr));
        emit (Branch ((fun ix -> A.Cbnz (scratch1, ix)), retry));
        emit (L done_);
        ins (A.Dmb A.Full)
    | Mapping.Schemes.(Helper_gcc9 | Helper_gcc10) ->
        Fault.raise_ ~pc:b.Tcg.Block.guest_pc Fault.Backend_fault
          "Cas op under helper RMW strategy"
  in
  let lower_atomic ~op ~old ~addr ~src =
    match config.rmw with
    | Mapping.Schemes.Risotto_rmw1 ->
        (* LSE single-instruction atomics; like casal, their full-fence
           behaviour needs the corrected Arm-Cats model (§3.3). *)
        ins
          (match op with
          | `Xadd ->
              A.Ldadd { acq = true; rel = true; old = reg old; src = reg src; base = reg addr }
          | `Xchg ->
              A.Swp { acq = true; rel = true; old = reg old; src = reg src; base = reg addr })
    | Mapping.Schemes.(Risotto_rmw2 | Helper_gcc9 | Helper_gcc10) ->
        (* Figure 7b's RMW2 form: DMBFF-bracketed exclusive loop. *)
        let retry = !next_backend_label in
        incr next_backend_label;
        ins (A.Dmb A.Full);
        emit (L retry);
        ins (A.Ldxr (reg old, reg addr));
        (match op with
        | `Xadd -> ins (A.Alu (A.Add, scratch0, reg old, A.R (reg src)))
        | `Xchg -> ins (A.Mov (scratch0, reg src)));
        ins (A.Stxr (scratch1, scratch0, reg addr));
        emit (Branch ((fun ix -> A.Cbnz (scratch1, ix)), retry));
        ins (A.Dmb A.Full)
  in
  List.iter
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
          emit (Branch ((fun ix -> A.Bcc (cc_of_cond c, ix)), l))
      | Op.Set_label l -> emit (L l)
      | Op.Br l -> emit (Branch ((fun ix -> A.B ix), l))
      | Op.Cas { old; addr; expect; desired } ->
          lower_cas ~old ~addr ~expect ~desired
      | Op.Atomic { op; old; addr; src } -> lower_atomic ~op ~old ~addr ~src
      | Op.Call (f, args, ret) ->
          ins (A.Blr_helper (f, List.map reg args, Option.map reg ret))
      | Op.Host_call { func; args; ret } ->
          ins (A.Host_call { func; args = List.map reg args; ret = Option.map reg ret })
      | Op.Goto_tb pc -> ins (A.Goto_tb pc)
      | Op.Goto_ptr t -> ins (A.Goto_ptr (reg t))
      | Op.Exit_halt -> ins A.Exit_halt
      | Op.Trap (kind, context) -> ins (A.Trap { kind; context }))
    b.Tcg.Block.ops;
  let items = List.rev !items in
  (* Resolve labels to instruction indices. *)
  let label_index = Hashtbl.create 8 in
  let _ =
    List.fold_left
      (fun ix item ->
        match item with
        | L l ->
            Hashtbl.replace label_index l ix;
            ix
        | I _ | Branch _ -> ix + 1)
      0 items
  in
  let code =
    List.filter_map
      (function
        | L _ -> None
        | I i -> Some i
        | Branch (mk, l) -> (
            match Hashtbl.find_opt label_index l with
            | Some ix -> Some (mk ix)
            | None ->
                Fault.raise_ ~pc:b.Tcg.Block.guest_pc Fault.Backend_fault
                  (Printf.sprintf "unresolved label %d" l)))
      items
  in
  Array.of_list code
