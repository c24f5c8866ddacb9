type trap =
  | Trap_insn of { kind : string; context : string }
  | Unknown_helper of string
  | Unknown_host of string
  | Runaway
  | Fell_through of int

type exit_state = Next_tb of int64 | Jump of int64 | Halted | Trapped of trap

type thread = {
  tid : int;
  regs : int64 array;
  mutable cmp : int64 * int64;
  mutable exclusive : int64 option;
  mutable cycles : int;
  mutable insns : int;
  mutable fences : int;
  mutable helper_calls : int;
  mutable host_calls : int;
  mutable last_dmb : bool;
  mutable halted : bool;
  mutable exit_code : int64;
  output : Buffer.t;
}

type shared = {
  s_mem : Memsys.Mem.t;
  s_cost : Cost.t;
  helpers : (string, helper) Hashtbl.t;
  memo_names : string array;
  memo_helpers : helper array;
  mutable memo_next : int;
}

and helper = shared -> thread -> int64 list -> int64

(* Helper resolution memo: the last [memo_slots] names resolved,
   matched by physical equality.  The frontend emits most helper names
   as string literals shared by every call site, so a hot call resolves
   once and then pays neither a string hash nor a table probe; a name
   built at translation time (the GCC RMW helpers) takes one slot per
   translated block.  [register_helper] empties the memo, so a
   re-registered name resolves afresh on its next call. *)
let memo_slots = 8

(* Never physically equal to a name in emitted code: marks a free slot. *)
let no_name = String.make 0 ' '

(* The resolution of a name with no registered helper. *)
let unresolved : helper = fun _ _ _ -> 0L

let create_shared ?(cost = Cost.default) mem =
  {
    s_mem = mem;
    s_cost = cost;
    helpers = Hashtbl.create 16;
    memo_names = Array.make memo_slots no_name;
    memo_helpers = Array.make memo_slots unresolved;
    memo_next = 0;
  }

let mem s = s.s_mem
let cost s = s.s_cost

let register_helper s name h =
  Hashtbl.replace s.helpers name h;
  Array.fill s.memo_names 0 memo_slots no_name

let find_helper s name = Hashtbl.find_opt s.helpers name

let resolve_miss s name =
  match Hashtbl.find s.helpers name with
  | exception Not_found -> unresolved
  | h ->
      let i = s.memo_next in
      s.memo_names.(i) <- name;
      s.memo_helpers.(i) <- h;
      s.memo_next <- (i + 1) mod memo_slots;
      h

let rec resolve_from s name i =
  if i = memo_slots then resolve_miss s name
  else if s.memo_names.(i) == name then s.memo_helpers.(i)
  else resolve_from s name (i + 1)

let create_thread tid =
  {
    tid;
    regs = Array.make 32 0L;
    cmp = (0L, 0L);
    exclusive = None;
    cycles = 0;
    insns = 0;
    fences = 0;
    helper_calls = 0;
    host_calls = 0;
    last_dmb = false;
    halted = false;
    exit_code = 0L;
    output = Buffer.create 16;
  }

let charge t c = t.cycles <- t.cycles + c

(* Contention model: an atomic that must steal the line pays one
   transfer per other sharer of the line (queueing on the coherence
   interconnect grows with the number of contenders). *)
let atomic_line s t addr =
  if Memsys.Mem.acquire_line s.s_mem addr ~tid:t.tid then
    let others = max 1 (Memsys.Mem.sharers s.s_mem addr - 1) in
    charge t (s.s_cost.Cost.line_transfer * others)

let eval_cc (cc : Insn.cc) (a, b) =
  match cc with
  | Insn.Eq -> Int64.equal a b
  | Insn.Ne -> not (Int64.equal a b)
  | Insn.Lt -> Int64.compare a b < 0
  | Insn.Le -> Int64.compare a b <= 0
  | Insn.Gt -> Int64.compare a b > 0
  | Insn.Ge -> Int64.compare a b >= 0
  | Insn.Lo -> Int64.unsigned_compare a b < 0
  | Insn.Ls -> Int64.unsigned_compare a b <= 0
  | Insn.Hi -> Int64.unsigned_compare a b > 0
  | Insn.Hs -> Int64.unsigned_compare a b >= 0

let alu_eval (op : Insn.alu) a b =
  match op with
  | Insn.Add -> Int64.add a b
  | Insn.Sub -> Int64.sub a b
  | Insn.And -> Int64.logand a b
  | Insn.Orr -> Int64.logor a b
  | Insn.Eor -> Int64.logxor a b
  | Insn.Lsl -> Int64.shift_left a (Int64.to_int b land 63)
  | Insn.Lsr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Insn.Mul -> Int64.mul a b

let fp_eval (op : Insn.fpop) a b =
  let fa = Int64.float_of_bits a and fb = Int64.float_of_bits b in
  Int64.bits_of_float
    (match op with
    | Insn.Fadd -> fa +. fb
    | Insn.Fsub -> fa -. fb
    | Insn.Fmul -> fa *. fb
    | Insn.Fdiv -> fa /. fb
    | Insn.Fsqrt -> sqrt fb)

let get t r = if r = Insn.xzr then 0L else t.regs.(r)
let set t r v = if r <> Insn.xzr then t.regs.(r) <- v
let operand t = function Insn.R r -> get t r | Insn.I i -> i

(* Helper arguments in register order: the list is the only thing a
   call allocates besides the helper's own result. *)
let rec arg_values t = function
  | [] -> []
  | r :: rs ->
      let v = get t r in
      v :: arg_values t rs

let load_exclusive s t d b =
  let addr = get t b in
  t.exclusive <- Some addr;
  set t d (Memsys.Mem.load s.s_mem addr)

let store_exclusive s t st src b =
  let addr = get t b in
  (match t.exclusive with
  | Some a when Int64.equal a addr ->
      atomic_line s t addr;
      Memsys.Mem.store s.s_mem addr (get t src);
      set t st 0L
  | _ -> set t st 1L);
  t.exclusive <- None

(* Host instructions one block may execute before it traps [Runaway]. *)
let fuel_per_block = 10_000_000

(* One loop over the block: [pc] indexes [code], and an exit
   instruction (or a trap) stores the block's result in [exit] and
   stops the loop.  Nothing here builds a closure; what allocates is
   the boxed result of an instruction that writes a register, the
   lazy-flags pair of a [Cmp], and a helper's argument list. *)
let exec_block s t (code : Insn.t array) =
  let c = s.s_cost and mem = s.s_mem in
  let n = Array.length code in
  let pc = ref 0 and fuel = ref fuel_per_block in
  let exit = ref Halted and running = ref true in
  while !running do
    decr fuel;
    if !fuel <= 0 then begin
      exit := Trapped Runaway;
      running := false
    end
    else if !pc >= n then begin
      exit := Trapped (Fell_through !pc);
      running := false
    end
    else begin
      let insn = code.(!pc) in
      incr pc;
      t.insns <- t.insns + 1;
      let was_dmb = t.last_dmb in
      t.last_dmb <- (match insn with Insn.Dmb _ -> true | _ -> false);
      match insn with
      | Insn.Movz (r, v) ->
          charge t c.base;
          set t r v
      | Insn.Mov (a, b) ->
          charge t c.base;
          set t a (get t b)
      | Insn.Alu (op, d, a, b) ->
          charge t (match op with Insn.Mul -> c.mul | _ -> c.base);
          set t d (alu_eval op (get t a) (operand t b))
      | Insn.Ldr (d, b, off) ->
          charge t c.ldr;
          set t d (Memsys.Mem.load_at mem (get t b) off)
      | Insn.Str (src, b, off) ->
          charge t c.str;
          Memsys.Mem.store_at mem (get t b) off (get t src)
      | Insn.Ldar (d, b) | Insn.Ldapr (d, b) ->
          charge t (c.ldr + c.acq_rel_extra);
          set t d (Memsys.Mem.load mem (get t b))
      | Insn.Stlr (src, b) ->
          charge t (c.str + c.acq_rel_extra);
          Memsys.Mem.store mem (get t b) (get t src)
      | Insn.Ldxr (d, b) ->
          charge t c.excl;
          load_exclusive s t d b
      | Insn.Ldaxr (d, b) ->
          charge t (c.excl + c.acq_rel_extra);
          load_exclusive s t d b
      | Insn.Stxr (st, src, b) ->
          charge t c.excl;
          store_exclusive s t st src b
      | Insn.Stlxr (st, src, b) ->
          charge t (c.excl + c.acq_rel_extra);
          store_exclusive s t st src b
      | Insn.Cas { cmp; swap; base; _ } ->
          (* casal's acquire/release cost is already in [c.cas] *)
          charge t c.cas;
          let addr = get t base in
          atomic_line s t addr;
          let old = Memsys.Mem.load mem addr in
          if Int64.equal old (get t cmp) then Memsys.Mem.store mem addr (get t swap);
          set t cmp old
      | Insn.Ldadd { old; src; base; _ } ->
          charge t c.cas;
          let addr = get t base in
          atomic_line s t addr;
          let cur = Memsys.Mem.load mem addr in
          Memsys.Mem.store mem addr (Int64.add cur (get t src));
          set t old cur
      | Insn.Swp { old; src; base; _ } ->
          charge t c.cas;
          let addr = get t base in
          atomic_line s t addr;
          let cur = Memsys.Mem.load mem addr in
          Memsys.Mem.store mem addr (get t src);
          set t old cur
      | Insn.Dmb b ->
          t.fences <- t.fences + 1;
          charge t
            (if was_dmb then c.dmb_chained
             else
               match b with
               | Insn.Full -> c.dmb_full
               | Insn.Ld -> c.dmb_ld
               | Insn.St -> c.dmb_st)
      | Insn.Cmp (r, o) ->
          charge t c.base;
          t.cmp <- (get t r, operand t o)
      | Insn.B tgt ->
          charge t c.branch;
          pc := tgt
      | Insn.Bcc (cc, tgt) ->
          charge t c.branch;
          if eval_cc cc t.cmp then pc := tgt
      | Insn.Cbz (r, tgt) ->
          charge t c.branch;
          if Int64.equal (get t r) 0L then pc := tgt
      | Insn.Cbnz (r, tgt) ->
          charge t c.branch;
          if not (Int64.equal (get t r) 0L) then pc := tgt
      | Insn.Cset (r, cc) ->
          charge t c.base;
          set t r (if eval_cc cc t.cmp then 1L else 0L)
      | Insn.Fp (op, d, a, b) ->
          charge t c.fp;
          set t d (fp_eval op (get t a) (get t b))
      | Insn.Blr_helper (name, args, ret) ->
          charge t c.helper_call;
          t.helper_calls <- t.helper_calls + 1;
          let h = resolve_from s name 0 in
          if h == unresolved then begin
            exit := Trapped (Unknown_helper name);
            running := false
          end
          else begin
            let v = h s t (arg_values t args) in
            (match ret with Some r -> set t r v | None -> ());
            if t.halted then running := false
          end
      | Insn.Host_call { func; args; ret } ->
          charge t (c.host_call + (c.marshal_per_arg * List.length args));
          t.host_calls <- t.host_calls + 1;
          let h = resolve_from s func 0 in
          if h == unresolved then begin
            exit := Trapped (Unknown_host func);
            running := false
          end
          else begin
            let v = h s t (arg_values t args) in
            (match ret with Some r -> set t r v | None -> ());
            if t.halted then running := false
          end
      | Insn.Goto_tb target ->
          charge t c.branch;
          exit := Next_tb target;
          running := false
      | Insn.Goto_ptr r ->
          charge t c.branch;
          exit := Jump (get t r);
          running := false
      | Insn.Exit_halt -> running := false
      | Insn.Trap { kind; context } ->
          exit := Trapped (Trap_insn { kind; context });
          running := false
    end
  done;
  !exit
