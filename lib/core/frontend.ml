module Op = Tcg.Op
module S = Mapping.Schemes

type t = {
  config : Config.t;
  image : Image.Gelf.t;
  links : Linker.Link.t;
  inject : Inject.t;
}

let create ?inject config image links =
  let inject =
    match inject with Some i -> i | None -> Inject.create config.Config.inject
  in
  { config; image; links; inject }

let max_block_insns = 32

(* Translation-time state: op accumulator (reversed), temp and label
   allocators. *)
type ctx = {
  mutable ops : Op.t list;
  mutable next_temp : Op.temp;
  mutable next_label : int;
}

let emit ctx op = ctx.ops <- op :: ctx.ops

let fresh_temp ctx =
  let t = ctx.next_temp in
  ctx.next_temp <- t + 1;
  t

let fresh_label ctx =
  let l = ctx.next_label in
  ctx.next_label <- l + 1;
  l

let greg r = Op.guest_reg (X86.Reg.index r)

let log2_scale = function
  | 1 -> 0L
  | 2 -> 1L
  | 4 -> 2L
  | 8 -> 3L
  | s -> Fault.raise_ Fault.Translate_fault (Printf.sprintf "bad scale %d" s)

(* Effective address of an x86 memory operand as (base temp, offset). *)
let ea ctx (m : X86.Insn.mem) =
  match (m.base, m.index) with
  | Some b, None -> (greg b, m.disp)
  | None, None ->
      let t = fresh_temp ctx in
      emit ctx (Op.Movi (t, m.disp));
      (t, 0L)
  | base, Some (i, scale) ->
      let t = fresh_temp ctx in
      emit ctx (Op.Binopi (Op.Shl, t, greg i, log2_scale scale));
      (match base with
      | Some b -> emit ctx (Op.Binop (Op.Add, t, t, greg b))
      | None -> ());
      (t, m.disp)

(* The fences the mapping table places on one side of a guest access,
   each tagged with the guest pc and the table row that placed it, so
   the optimizer's ledger can attribute merges back to instructions. *)
let rec emit_fences ctx origin = function
  | [] -> ()
  | f :: rest ->
      emit ctx (Op.Mb (f, origin));
      emit_fences ctx origin rest

let place ctx ~pc fences side access =
  match S.fences fences side access with
  | [] -> ()
  | fs -> emit_fences ctx { Op.opc = pc; rule = S.rule_name side access } fs

let guest_load ctx ~pc fences dst base off =
  place ctx ~pc fences `Pre `Load;
  emit ctx (Op.Ld (dst, base, off));
  place ctx ~pc fences `Post `Load

let guest_store ctx ~pc fences src base off =
  place ctx ~pc fences `Pre `Store;
  emit ctx (Op.St (src, base, off));
  place ctx ~pc fences `Post `Store

let alu_binop : X86.Insn.alu -> Op.binop = function
  | X86.Insn.Add -> Op.Add
  | X86.Insn.Sub -> Op.Sub
  | X86.Insn.And -> Op.And
  | X86.Insn.Or -> Op.Or
  | X86.Insn.Xor -> Op.Xor
  | X86.Insn.Shl -> Op.Shl
  | X86.Insn.Shr -> Op.Shr
  | X86.Insn.Imul -> Op.Mul

let negate_cond : Op.cond -> Op.cond = function
  | Op.Eq -> Op.Ne
  | Op.Ne -> Op.Eq
  | Op.Lt -> Op.Ge
  | Op.Le -> Op.Gt
  | Op.Gt -> Op.Le
  | Op.Ge -> Op.Lt
  | Op.Ltu -> Op.Geu
  | Op.Leu -> Op.Gtu
  | Op.Gtu -> Op.Leu
  | Op.Geu -> Op.Ltu

let cond_of_cc : X86.Insn.cc -> Op.cond = function
  | X86.Insn.E -> Op.Eq
  | X86.Insn.Ne -> Op.Ne
  | X86.Insn.L -> Op.Lt
  | X86.Insn.Le -> Op.Le
  | X86.Insn.G -> Op.Gt
  | X86.Insn.Ge -> Op.Ge
  | X86.Insn.B -> Op.Ltu
  | X86.Insn.Be -> Op.Leu
  | X86.Insn.A -> Op.Gtu
  | X86.Insn.Ae -> Op.Geu

let fp_helper : X86.Insn.fpop -> string = function
  | X86.Insn.Fadd -> "sf_add"
  | X86.Insn.Fsub -> "sf_sub"
  | X86.Insn.Fmul -> "sf_mul"
  | X86.Insn.Fdiv -> "sf_div"
  | X86.Insn.Fsqrt -> "sf_sqrt"

let rsp = greg X86.Reg.RSP
let rax = greg X86.Reg.RAX

(* Stack push/pop are ordinary guest stores/loads: Qemu cannot know the
   stack is thread-private, so they receive mapping fences too. *)
let push ctx ~pc fences src =
  emit ctx (Op.Binopi (Op.Sub, rsp, rsp, 8L));
  guest_store ctx ~pc fences src rsp 0L

let pop ctx ~pc fences dst =
  guest_load ctx ~pc fences dst rsp 0L;
  emit ctx (Op.Binopi (Op.Add, rsp, rsp, 8L))

(* Set the lazy flags from a comparison of [a] with source [b]. *)
let set_flags ctx a b =
  emit ctx (Op.Mov (Op.cmp_a, a));
  match b with
  | X86.Insn.R r -> emit ctx (Op.Mov (Op.cmp_b, greg r))
  | X86.Insn.I i -> emit ctx (Op.Movi (Op.cmp_b, i))

(* x86 CMPXCHG semantics around an SC compare-and-swap of RAX with the
   operand register: flags := CMP(RAX, old); RAX := old.  (On success
   RAX is unchanged since RAX = old.) *)
let cmpxchg_flags ctx old =
  emit ctx (Op.Mov (Op.cmp_a, rax));
  emit ctx (Op.Mov (Op.cmp_b, old));
  emit ctx (Op.Mov (rax, old))

(* The address of an RMW operand in one temp (TCG atomics take no
   offset). *)
let rmw_addr ctx m =
  let base, off = ea ctx m in
  if Int64.equal off 0L then base
  else begin
    let ta = fresh_temp ctx in
    emit ctx (Op.Binopi (Op.Add, ta, base, off));
    ta
  end

(* A guest RMW: the native TCG op, or a call into Qemu's helper when
   the configured RMW lowering has one; fenced per the mapping table. *)
let guest_rmw ctx ~pc (config : Config.t) ~native ~helper args told =
  place ctx ~pc config.fences `Pre `Rmw;
  (match S.rmw_helper config.rmw with
  | None -> emit ctx native
  | Some gcc -> emit ctx (Op.Call (helper ^ "_" ^ gcc, args, Some told)));
  place ctx ~pc config.fences `Post `Rmw

(* One guest instruction.  Returns [true] when the block ends here. *)
let translate_insn t ctx pc next_pc (insn : X86.Insn.t) =
  let fences = t.config.Config.fences in
  match insn with
  | X86.Insn.Mov_ri (r, imm) ->
      emit ctx (Op.Movi (greg r, imm));
      false
  | X86.Insn.Mov_rr (a, b) ->
      emit ctx (Op.Mov (greg a, greg b));
      false
  | X86.Insn.Load (r, m) ->
      let base, off = ea ctx m in
      guest_load ctx ~pc fences (greg r) base off;
      false
  | X86.Insn.Store (m, src) ->
      let base, off = ea ctx m in
      let v =
        match src with
        | X86.Insn.R r -> greg r
        | X86.Insn.I i ->
            let tv = fresh_temp ctx in
            emit ctx (Op.Movi (tv, i));
            tv
      in
      guest_store ctx ~pc fences v base off;
      false
  | X86.Insn.Alu (op, r, src) ->
      (match src with
      | X86.Insn.R r2 -> emit ctx (Op.Binop (alu_binop op, greg r, greg r, greg r2))
      | X86.Insn.I i -> emit ctx (Op.Binopi (alu_binop op, greg r, greg r, i)));
      false
  | X86.Insn.Fp (op, a, b) ->
      (* SSE scalar doubles are emulated in software (§7.3): every FP
         instruction becomes a helper call. *)
      emit ctx (Op.Call (fp_helper op, [ greg a; greg b ], Some (greg a)));
      false
  | X86.Insn.Lea (r, m) ->
      let base, off = ea ctx m in
      if Int64.equal off 0L then emit ctx (Op.Mov (greg r, base))
      else emit ctx (Op.Binopi (Op.Add, greg r, base, off));
      false
  | X86.Insn.Inc r ->
      emit ctx (Op.Binopi (Op.Add, greg r, greg r, 1L));
      false
  | X86.Insn.Dec r ->
      emit ctx (Op.Binopi (Op.Sub, greg r, greg r, 1L));
      false
  | X86.Insn.Neg r ->
      let t = fresh_temp ctx in
      emit ctx (Op.Movi (t, 0L));
      emit ctx (Op.Binop (Op.Sub, greg r, t, greg r));
      false
  | X86.Insn.Not r ->
      emit ctx (Op.Binopi (Op.Xor, greg r, greg r, -1L));
      false
  | X86.Insn.Cmov (cc, a, b) ->
      (* Branchless in real backends; a short forward branch here. *)
      let l = fresh_label ctx in
      emit ctx
        (Op.Brcond (negate_cond (cond_of_cc cc), Op.cmp_a, Op.cmp_b, l));
      emit ctx (Op.Mov (greg a, greg b));
      emit ctx (Op.Set_label l);
      false
  | X86.Insn.Test (r, src) ->
      let t = fresh_temp ctx in
      (match src with
      | X86.Insn.R r2 -> emit ctx (Op.Binop (Op.And, t, greg r, greg r2))
      | X86.Insn.I i -> emit ctx (Op.Binopi (Op.And, t, greg r, i)));
      emit ctx (Op.Mov (Op.cmp_a, t));
      emit ctx (Op.Movi (Op.cmp_b, 0L));
      false
  | X86.Insn.Cmp (r, src) ->
      set_flags ctx (greg r) src;
      false
  | X86.Insn.Jmp target ->
      emit ctx (Op.Goto_tb target);
      true
  | X86.Insn.Jcc (cc, target) ->
      let l = fresh_label ctx in
      emit ctx (Op.Brcond (cond_of_cc cc, Op.cmp_a, Op.cmp_b, l));
      emit ctx (Op.Goto_tb next_pc);
      emit ctx (Op.Set_label l);
      emit ctx (Op.Goto_tb target);
      true
  | X86.Insn.Call target ->
      let tret = fresh_temp ctx in
      emit ctx (Op.Movi (tret, next_pc));
      push ctx ~pc fences tret;
      emit ctx (Op.Goto_tb target);
      true
  | X86.Insn.Ret ->
      let tret = fresh_temp ctx in
      pop ctx ~pc fences tret;
      emit ctx (Op.Goto_ptr tret);
      true
  | X86.Insn.Push r ->
      push ctx ~pc fences (greg r);
      false
  | X86.Insn.Pop r ->
      pop ctx ~pc fences (greg r);
      false
  | X86.Insn.Lock_cmpxchg (m, r) ->
      let taddr = rmw_addr ctx m in
      let told = fresh_temp ctx in
      guest_rmw ctx ~pc t.config
        ~native:(Op.Cas { old = told; addr = taddr; expect = rax; desired = greg r })
        ~helper:"helper_cmpxchg" [ taddr; rax; greg r ] told;
      cmpxchg_flags ctx told;
      false
  | X86.Insn.Lock_xadd (m, r) ->
      let taddr = rmw_addr ctx m in
      let told = fresh_temp ctx in
      guest_rmw ctx ~pc t.config
        ~native:(Op.Atomic { op = `Xadd; old = told; addr = taddr; src = greg r })
        ~helper:"helper_xadd" [ taddr; greg r ] told;
      emit ctx (Op.Mov (greg r, told));
      false
  | X86.Insn.Xchg (m, r) ->
      let taddr = rmw_addr ctx m in
      let told = fresh_temp ctx in
      guest_rmw ctx ~pc t.config
        ~native:(Op.Atomic { op = `Xchg; old = told; addr = taddr; src = greg r })
        ~helper:"helper_xchg" [ taddr; greg r ] told;
      emit ctx (Op.Mov (greg r, told));
      false
  | X86.Insn.Mfence ->
      (* MFENCE emits no access of its own: the table's fences replace it. *)
      place ctx ~pc fences `Pre `Mfence;
      place ctx ~pc fences `Post `Mfence;
      false
  | X86.Insn.Nop -> false
  | X86.Insn.Syscall ->
      emit ctx
        (Op.Call
           ( "helper_syscall",
             [ rax; greg X86.Reg.RDI; greg X86.Reg.RSI; greg X86.Reg.RDX ],
             Some rax ));
      emit ctx (Op.Goto_tb next_pc);
      true
  | X86.Insn.Hlt ->
      emit ctx Op.Exit_halt;
      true

(* Figure 11 steps 4–5: marshal guest argument registers to the host
   call, invoke the native function, write the result back to RAX, and
   return to the caller. *)
let translate_plt_stub ctx (entry : Linker.Link.entry) =
  let arg_regs = X86.Reg.[ RDI; RSI; RDX; RCX; R8; R9 ] in
  let args =
    List.mapi (fun i _ -> greg (List.nth arg_regs i)) entry.signature.Linker.Idl.args
  in
  let ret =
    match entry.signature.Linker.Idl.ret with
    | Linker.Idl.Void -> None
    | Linker.Idl.I64 | Linker.Idl.F64 | Linker.Idl.Ptr -> Some rax
  in
  emit ctx (Op.Host_call { func = entry.name; args; ret });
  (* Return to the guest caller: pop the return address pushed by the
     guest CALL.  Host glue code: no guest memory-model fences. *)
  let tret = fresh_temp ctx in
  emit ctx (Op.Ld (tret, rsp, 0L));
  emit ctx (Op.Binopi (Op.Add, rsp, rsp, 8L));
  emit ctx (Op.Goto_ptr tret)

(* A pc that is the PLT slot of an import the IDL promised but the
   host library lacks.  Such imports become lazy trap stubs: the run
   only faults — and only in the calling thread — if the import is
   actually invoked (Link_fault). *)
let link_trap t pc =
  if not t.config.Config.host_linker then None
  else
    List.find_map
      (fun (name, cause) ->
        match cause with
        | Linker.Link.Missing_host_symbol -> (
            match List.assoc_opt name t.image.Image.Gelf.plt with
            | Some addr when Int64.equal addr pc -> Some name
            | Some _ | None -> None)
        | Linker.Link.No_idl_signature | Linker.Link.No_plt_slot -> None)
      (Linker.Link.unresolved_causes t.links)

let decode_one t pc =
  if Inject.fire t.inject Inject.Decode then
    Error (Printf.sprintf "injected decode fault at 0x%Lx" pc)
  else
    match
      X86.Decode.decode t.image.Image.Gelf.text ~pc
        ~base:t.image.Image.Gelf.text_base
    with
    | insn_and_len -> Ok insn_and_len
    | exception X86.Decode.Bad_encoding (epc, msg) ->
        Error (Printf.sprintf "0x%Lx: %s" epc msg)

let trap_block pc kind context =
  { Tcg.Block.guest_pc = pc; guest_len = 0; guest_insns = 0;
    ops = [ Op.Trap (kind, context) ] }

let translate t pc =
  let ctx = { ops = []; next_temp = Op.first_local; next_label = 0 } in
  match
    if t.config.Config.host_linker then Linker.Link.lookup t.links pc else None
  with
  | Some entry ->
      translate_plt_stub ctx entry;
      {
        Tcg.Block.guest_pc = pc;
        guest_len = 0;
        guest_insns = 0;
        ops = List.rev ctx.ops;
      }
  | None -> (
      match link_trap t pc with
      | Some name ->
          trap_block pc "link" ("unresolved host import " ^ name)
      | None -> (
          match decode_one t pc with
          | Error msg ->
              (* The very first instruction is undecodable: the whole
                 block is a trap.  Executing it faults the thread. *)
              trap_block pc "decode" msg
          | Ok first ->
              let rec go insn_len pc count len =
                let insn, ilen = insn_len in
                let next_pc = Int64.add pc (Int64.of_int ilen) in
                let ended = translate_insn t ctx pc next_pc insn in
                let count = count + 1 and len = len + ilen in
                if ended then (count, len)
                else if count >= max_block_insns then begin
                  emit ctx (Op.Goto_tb next_pc);
                  (count, len)
                end
                else
                  match decode_one t next_pc with
                  | Ok next -> go next next_pc count len
                  | Error _ ->
                      (* Undecodable bytes mid-block: end the block at
                         the boundary.  If control actually reaches the
                         bad pc, its own (trap) block faults then. *)
                      emit ctx (Op.Goto_tb next_pc);
                      (count, len)
              in
              let insns, len = go first pc 0 0 in
              {
                Tcg.Block.guest_pc = pc;
                guest_len = len;
                guest_insns = insns;
                ops = List.rev ctx.ops;
              }))
