type exit_state =
  | Next_tb of int64
  | Jump of int64
  | Halted
  | Trapped of string * string

exception No_helper of string

type env = {
  temps : int64 array;
  mem : Memsys.Mem.t;
  helpers : string -> int64 list -> int64;
}

let default_helpers name _ = raise (No_helper name)

let create_env ?(helpers = default_helpers) mem =
  { temps = Array.make 256 0L; mem; helpers }

let exec_block env (b : Block.t) =
  let ops = b.ops and temps = env.temps and mem = env.mem in
  let n = Array.length ops in
  let fuel = ref 1_000_000 and i = ref 0 and exit = ref None in
  let jump l =
    if l >= 0 && l < Array.length b.labels && b.labels.(l) >= 0 then i := b.labels.(l)
    else
      exit :=
        Some
          (Trapped
             ( "translate",
               Printf.sprintf "Tcg.Interp: block 0x%Lx: undefined label %d"
                 b.guest_pc l ))
  in
  let next () = incr i in
  while Option.is_none !exit do
    decr fuel;
    if !fuel <= 0 then
      exit :=
        Some
          (Trapped
             ("watchdog", Printf.sprintf "Tcg.Interp: runaway block 0x%Lx" b.guest_pc))
    else if !i >= n then
      exit :=
        Some
          (Trapped
             ( "translate",
               Printf.sprintf "Tcg.Interp: block 0x%Lx fell through" b.guest_pc ))
    else
      match ops.(!i) with
      | Op.Movi (d, v) ->
          temps.(d) <- v;
          next ()
      | Op.Mov (d, s) ->
          temps.(d) <- temps.(s);
          next ()
      | Op.Binop (op, d, a, b') ->
          temps.(d) <- Op.eval_binop op temps.(a) temps.(b');
          next ()
      | Op.Binopi (op, d, a, imm) ->
          temps.(d) <- Op.eval_binop op temps.(a) imm;
          next ()
      | Op.Ld (d, base, off) ->
          temps.(d) <- Memsys.Mem.load_at mem temps.(base) off;
          next ()
      | Op.St (s, base, off) ->
          Memsys.Mem.store_at mem temps.(base) off temps.(s);
          next ()
      | Op.Mb _ | Op.Set_label _ -> next ()
      | Op.Setcond (c, d, a, b') ->
          temps.(d) <- (if Op.eval_cond c temps.(a) temps.(b') then 1L else 0L);
          next ()
      | Op.Brcond (c, a, b', l) ->
          if Op.eval_cond c temps.(a) temps.(b') then jump l else next ()
      | Op.Br l -> jump l
      | Op.Rmw { op; old; addr; expect; src } ->
          let a = temps.(addr) in
          let cur = Memsys.Mem.load mem a in
          (match op with
          | `Cas -> if Int64.equal cur temps.(expect) then Memsys.Mem.store mem a temps.(src)
          | `Xadd -> Memsys.Mem.store mem a (Int64.add cur temps.(src))
          | `Xchg -> Memsys.Mem.store mem a temps.(src));
          temps.(old) <- cur;
          next ()
      | Op.Call (f, args, ret) | Op.Host_call { func = f; args; ret } -> (
          match env.helpers f (List.map (fun t -> temps.(t)) args) with
          | v ->
              (match ret with Some r -> temps.(r) <- v | None -> ());
              next ()
          | exception No_helper name ->
              exit := Some (Trapped ("helper", "Tcg.Interp: no helper " ^ name)))
      | Op.Goto_tb pc -> exit := Some (Next_tb pc)
      | Op.Goto_ptr t -> exit := Some (Jump temps.(t))
      | Op.Exit_halt -> exit := Some Halted
      | Op.Trap (kind, context) -> exit := Some (Trapped (kind, context))
  done;
  Option.get !exit
