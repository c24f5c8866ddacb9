module M = Arm.Machine
module S = Mapping.Schemes

let softfloat_cycles = 38

(* Every helper matches its argument list with a pattern: helpers run
   on every emitted call, and a [List.nth_opt] per read would allocate
   an option.  A list too short names the first missing index. *)
let missing n =
  Fault.raise_ Fault.Helper_fault (Printf.sprintf "missing helper argument %d" n)

let softfloat op _shared t args =
  M.charge t softfloat_cycles;
  match args with
  | a :: b :: _ ->
      let a = Int64.float_of_bits a and b = Int64.float_of_bits b in
      Int64.bits_of_float
        (match op with
        | `Add -> a +. b
        | `Sub -> a -. b
        | `Mul -> a *. b
        | `Div -> a /. b
        | `Sqrt -> sqrt b)
  | _ -> missing (List.length args)

(* The cycles of the RMW table's steps, at the Arm machine's
   per-instruction costs; an exclusive loop counts one pass. *)
let rec steps_cycles (c : Arm.Cost.t) = function
  | [] -> 0
  | S.Dmb_full :: rest -> c.dmb_full + steps_cycles c rest
  | S.Amo _ :: rest -> c.cas + steps_cycles c rest
  | S.Exclusive { acq; rel } :: rest ->
      (2 * c.excl)
      + (if acq then c.acq_rel_extra else 0)
      + (if rel then c.acq_rel_extra else 0)
      + steps_cycles c rest

(* Qemu's RMW helper for [op] built with [lowering]'s GCC: charges the
   table's steps for [lowering] and performs the RMW in one atomic
   step.  helper_cmpxchg(addr, expect, desired); helper_xadd /
   helper_xchg(addr, src). *)
let rmw (op : S.rmw_op) lowering shared (t : M.thread) args =
  M.charge t (steps_cycles (M.cost shared) (S.rmw_sequence lowering op));
  match (op, args) with
  | `Cas, addr :: expect :: desired :: _ ->
      M.atomic_line shared t addr;
      let old = Memsys.Mem.load (M.mem shared) addr in
      if Int64.equal old expect then Memsys.Mem.store (M.mem shared) addr desired;
      old
  | ((`Xadd | `Xchg) as op), addr :: src :: _ ->
      M.atomic_line shared t addr;
      let old = Memsys.Mem.load (M.mem shared) addr in
      Memsys.Mem.store (M.mem shared) addr
        (match op with `Xadd -> Int64.add old src | `Xchg -> src);
      old
  | (`Cas | `Xadd | `Xchg), _ -> missing (List.length args)

(* Every (name, helper) pair of the RMW table's helper lowerings. *)
let rmw_helpers =
  List.concat_map
    (fun op ->
      List.filter_map
        (fun lowering -> Option.map (fun name -> (name, rmw op lowering)) (S.rmw_helper lowering op))
        S.rmw_lowerings)
    S.rmw_ops

(* helper_syscall(nr, rdi, rsi, rdx) *)
let syscall ~on_clone s (t : M.thread) args =
  match args with
  | 60L :: code :: _ ->
      t.M.halted <- true;
      t.M.exit_code <- code;
      0L
  | 1L :: _ :: buf :: len :: _ ->
      for i = 0 to Int64.to_int len - 1 do
        Buffer.add_char t.M.output
          (Char.chr (Memsys.Mem.load_byte (M.mem s) (Int64.add buf (Int64.of_int i))))
      done;
      len
  | 56L :: entry :: arg :: _ -> (
      (* clone(fn=rdi, arg=rsi): spawn a guest thread at [fn] with
         RDI = arg; returns the child tid (or -ENOSYS when the engine
         runs single-threaded). *)
      match on_clone with Some spawn -> spawn ~entry ~arg | None -> -38L)
  | 186L :: _ -> Int64.of_int t.M.tid
  | (60L | 1L | 56L) :: _ | [] -> missing (List.length args)
  | _ :: _ -> -38L

let register_all ?on_clone ?inject shared =
  M.register_helper shared "helper_syscall" (syscall ~on_clone);
  List.iter (fun (name, h) -> M.register_helper shared name h) rmw_helpers;
  M.register_helper shared "sf_add" (softfloat `Add);
  M.register_helper shared "sf_sub" (softfloat `Sub);
  M.register_helper shared "sf_mul" (softfloat `Mul);
  M.register_helper shared "sf_div" (softfloat `Div);
  M.register_helper shared "sf_sqrt" (softfloat `Sqrt);
  List.iter
    (fun (name, (fn : Linker.Hostlib.fn)) ->
      M.register_helper shared name (fun s t args ->
          (match inject with
          | Some inj when Inject.fire inj Inject.Host_call ->
              Fault.raise_ Fault.Link_fault
                ("injected host-call fault in " ^ name)
          | Some _ | None -> ());
          M.charge t (fn.Linker.Hostlib.cycles args);
          fn.Linker.Hostlib.call (M.mem s) args))
    Linker.Hostlib.all
