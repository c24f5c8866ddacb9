(* The DBT workloads.  Every guest program runs under the unmodified
   [Core.Config.risotto] preset (eager synchronous compile, chaining on,
   no superblocks) on one domain, with a fresh engine per program per
   rep: users pay translation on every run, so the timed rep does too. *)

module E = Core.Engine
module R = X86.Reg
module M = Arm.Machine

let config = Core.Config.risotto

type program = { name : string; image : Image.Gelf.t }

(* The final state a run must reproduce: guest registers 0–15 and the
   memory dump from the [X86.Interp] oracle, plus the model cycles of
   the first engine run (every later run must repeat them exactly). *)
type expected = { regs : int64 array; mem : (int64 * int64) list; cycles : int }

let guest_regs g = Array.sub g.E.arm.M.regs 0 16

(* RSP preset exactly as the engine's thread 0 gets it (cf. run_oracle
   in test/test_core.ml). *)
let oracle p =
  let img = p.image in
  let s =
    X86.Interp.create ~code:img.Image.Gelf.text ~base:img.Image.Gelf.text_base
      ~entry:img.Image.Gelf.entry ()
  in
  s.X86.Interp.regs.(R.index R.RSP) <- E.stack_top 0;
  ignore (X86.Interp.run ~max_steps:max_int s);
  if s.X86.Interp.halted then
    Some (Array.copy s.X86.Interp.regs, Memsys.Mem.dump s.X86.Interp.mem)
  else None

type outcome = { eng : E.t; g : E.guest_thread }

let run_engine p =
  let eng = E.create config p.image in
  { eng; g = E.run eng }

(* Cost-model guard: the TCG interpreter charges no model cycles (see
   ROADMAP), so a run that executed any block on it has cycles that do
   not compare with a native run.  Such a run counts as failed. *)
let clean o =
  let s = E.stats o.eng in
  E.trap o.g = None && o.g.E.finished && s.E.interp_execs = 0
  && s.E.interp_fallbacks = 0

let state_matches ~regs ~mem o =
  guest_regs o.g = regs && Memsys.Mem.dump (E.memory o.eng) = mem

let matches e o = clean o && E.cycles o.g = e.cycles && state_matches ~regs:e.regs ~mem:e.mem o

let blocks o = (E.stats o.eng).E.blocks_executed

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* kernel-mix: the 16 PARSEC/Phoenix stand-ins, seed-shuffled, each
   kernel's iteration count drawn from 120 × base × [0.9, 1.1]. *)
let kernel_mix ~seed ~scale =
  let st = Random.State.make [| seed |] in
  let specs =
    List.map
      (fun b ->
        let s = b.Harness.Parsec.spec in
        let f = 0.9 +. Random.State.float st 0.2 in
        let iters = 120. *. scale *. float_of_int s.Harness.Kernel.iters *. f in
        { s with Harness.Kernel.iters = max 1 (Float.to_int (Float.round iters)) })
      Harness.Parsec.all
  in
  List.map
    (fun spec ->
      {
        name = spec.Harness.Kernel.name;
        image = Image.Gelf.build ~entry:"main" (Harness.Kernel.to_x86 spec);
      })
    (shuffle st specs)

(* cold-code's instruction mix: the summed per-iteration mix of the 16
   kernels (about 35% loads, 10% stores, 38% ALU, 17% FP and 0.6%
   [lock xadd]), plus [mfence] at the kernels' lock rate.  The kernels
   have no [mfence]; it is the other x86 full barrier (a sequentially
   consistent store compiles to [mov] + [mfence]), and one per atomic
   RMW gives the fence-merge pass a full barrier to fold into the
   frontend's load and store fences. *)
type draw = Load | Store | Alu | Fp | Lock | Mfence

let cold_mix =
  let sum f =
    List.fold_left (fun n b -> n + f b.Harness.Parsec.spec.Harness.Kernel.mix) 0 Harness.Parsec.all
  in
  let open Harness.Kernel in
  let locks = sum (fun m -> m.locks) in
  [
    (Load, sum (fun m -> m.loads));
    (Store, sum (fun m -> m.stores));
    (Alu, sum (fun m -> m.arith));
    (Fp, sum (fun m -> m.fp));
    (Lock, locks);
    (Mfence, locks);
  ]

let draw st =
  let total = List.fold_left (fun n (_, w) -> n + w) 0 cold_mix in
  let rec pick r = function
    | [ (d, _) ] -> d
    | (d, w) :: rest -> if r < w then d else pick (r - w) rest
    | [] -> assert false
  in
  pick (Random.State.int st total) cold_mix

(* cold-code: one seeded straight-line guest drawn from [cold_mix], with
   the kernels' operand shapes.  The frontend cuts it into blocks of
   [Core.Frontend.max_block_insns] and each block executes once. *)
let cold_code ~seed ~scale =
  let open X86.Asm in
  let module I = X86.Insn in
  let st = Random.State.make [| seed |] in
  let data = 0x20000L in
  let n = max 64 (Float.to_int (1_280_000. *. scale)) in
  let body = ref [] in
  let emit i = body := Ins i :: !body in
  let k = ref 0 in
  while !k < n do
    let slot = Int64.of_int (8 * Random.State.int st 16) in
    (match draw st with
    | Load -> emit (I.Load (R.RAX, I.based R.RBX slot))
    | Store -> emit (I.Store (I.based R.RBX (Int64.add 128L slot), I.R R.RAX))
    | Alu ->
        emit
          (match Random.State.int st 4 with
          | 0 -> I.Alu (I.Add, R.RCX, I.I 3L)
          | 1 -> I.Alu (I.Xor, R.RDX, I.R R.RCX)
          | 2 -> I.Alu (I.Shl, R.RCX, I.I 1L)
          | _ -> I.Alu (I.Sub, R.RDX, I.I 1L))
    | Fp -> emit (I.Fp ((if Random.State.bool st then I.Fmul else I.Fadd), R.RSI, R.RSI))
    | Lock ->
        (* xadd writes the old value back into R8: re-arm it. *)
        emit (I.Mov_ri (R.R8, 1L));
        incr k;
        emit (I.Lock_xadd (I.based R.R14 0L, R.R8))
    | Mfence -> emit I.Mfence);
    incr k
  done;
  let items =
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, data));
      Ins (I.Mov_ri (R.R14, Int64.add data 1024L));
      Ins (I.Mov_ri (R.RCX, 1L));
      Ins (I.Mov_ri (R.RDX, 2L));
      Ins (I.Mov_ri (R.R8, 1L));
      Ins (I.Mov_ri (R.RSI, Int64.bits_of_float 1.000001));
    ]
    @ List.rev (Ins I.Hlt :: !body)
  in
  [ { name = "cold-code"; image = Image.Gelf.build ~entry:"main" items } ]

(* ------------------------------------------------------------------ *)
(* Traced path.  Three passes per program, each on its own engine and
   after a full major collection, so one pass's garbage is not charged
   to the next:

   1. the engine pass drives [Engine.step_block] one block at a time:
      the end-to-end path, with a span per block;
   2. the execution replay re-runs the guest outside the engine: code
      from [Engine.fetch] on a second engine, executed by
      [Arm.Machine.exec_block] on a machine with
      [Core.Helpers.register_all], each block's memory operands first
      replayed against a separate [Memsys.Mem] with the base registers'
      values at block entry.  It must reproduce the engine run exactly
      (cycles, registers, memory), so its times describe the code the
      engine ran.  The same path then runs on the TCG interpreter, the
      tier-0 reference;
   3. the translation replay re-translates every block the guest
      reached: [Engine.fetch] on a just-reset engine, then [X86.Decode],
      [Frontend.translate], [Pipeline.run_pass] per pass,
      [Pipeline.run ~ledger] and [Backend.compile] on the same pc.  A
      program with few blocks repeats it until [min_translations].

   Self times are differences: frontend = translate - decode, ledger =
   Pipeline.run - the passes, engine translate = fetch - frontend -
   Pipeline.run - backend, arm.machine = exec_block - memory replay,
   dispatch = step_block - exec_block - the engine's translations at
   the replayed cost per block. *)

type counts = {
  mutable executed : int;
  mutable engine_translated : int;
  mutable translated : int;  (* by the translation replay *)
  mutable decoded : int;
  mutable raw_ops : int;
  mutable out_ops : int;
  mutable arm_insns : int;
  mutable dmbs : int;
  mutable fences_in : int;
  mutable fences_out : int;
  mutable host_insns : int;
  mutable accesses : int;
  mutable cycles : int;
  mutable lookups : int;
  mutable chain_hits : int;
  mutable jcache_hits : int;
  mutable table_hits : int;
  mutable interp_blocks : int;
  mutable failed : int;
}

(* Float-only, so updates do not allocate inside the measured loops. *)
type words = {
  mutable w_engine : float;
  mutable w_exec : float;
  mutable w_fetch : float;
  mutable w_mem : float;
  mutable w_interp : float;
}

(* The memory operands of a host block, as (base register, offset,
   is_store); an atomic RMW counts as a load and a store. *)
let accesses code =
  Array.of_list
    (Array.fold_right
       (fun insn acc ->
         match insn with
         | Arm.Insn.Ldr (_, b, off) -> (b, off, false) :: acc
         | Arm.Insn.Str (_, b, off) -> (b, off, true) :: acc
         | Arm.Insn.Ldar (_, b) | Arm.Insn.Ldapr (_, b) | Arm.Insn.Ldxr (_, b)
         | Arm.Insn.Ldaxr (_, b) ->
             (b, 0L, false) :: acc
         | Arm.Insn.Stlr (_, b) | Arm.Insn.Stxr (_, _, b) | Arm.Insn.Stlxr (_, _, b) ->
             (b, 0L, true) :: acc
         | Arm.Insn.Cas { base; _ } | Arm.Insn.Ldadd { base; _ } | Arm.Insn.Swp { base; _ } ->
             (base, 0L, false) :: (base, 0L, true) :: acc
         | _ -> acc)
       code [])

(* The IDL [Engine.create] links against by default. *)
let host_idl () =
  if config.Core.Config.host_linker then Linker.Idl.parse Linker.Hostlib.idl_text
  else []

let dmb_count code =
  Array.fold_left (fun n i -> match i with Arm.Insn.Dmb _ -> n + 1 | _ -> n) 0 code

let pass_layer = function
  | Tcg.Pipeline.Const_fold -> "tcg.const_fold"
  | Tcg.Pipeline.Dce -> "tcg.dce"
  | Tcg.Pipeline.Mem_elim -> "tcg.mem_elim"
  | Tcg.Pipeline.Fence_merge -> "tcg.fence_merge"

(* Blocks each program may run on the TCG interpreter in the tier-0
   reference replay, and translations each program's translation replay
   makes at least: enough for steady rates, few enough to keep the
   traced run inside its time budget. *)
let interp_blocks_per_program = 20_000
let min_translations = 1000

let fresh_machine () =
  let mem = Memsys.Mem.create () in
  let shared = M.create_shared mem in
  Core.Helpers.register_all shared;
  let th = M.create_thread 0 in
  th.M.regs.(R.index R.RSP) <- E.stack_top 0;
  (mem, shared, th)

let traced programs sp =
  let a = Spans.acc sp in
  let a_create = a "core.engine.create"
  and a_step = a "core.engine.step_block"
  and a_fetch = a "core.engine.fetch"
  and a_decode = a "x86.decode"
  and a_frontend = a "core.frontend.translate"
  and a_pipeline = a "tcg.pipeline.run"
  and a_backend = a "core.backend.compile"
  and a_exec = a "arm.machine.exec_block"
  and a_mem = a "memsys.mem"
  and a_interp = a "tcg.interp.exec_block" in
  let a_pass = List.map (fun p -> (p, a (pass_layer p))) Tcg.Pipeline.all in
  let c =
    {
      executed = 0; engine_translated = 0; translated = 0; decoded = 0; raw_ops = 0;
      out_ops = 0; arm_insns = 0; dmbs = 0; fences_in = 0; fences_out = 0;
      host_insns = 0; accesses = 0; cycles = 0; lookups = 0; chain_hits = 0;
      jcache_hits = 0; table_hits = 0; interp_blocks = 0; failed = 0;
    }
  in
  let w = { w_engine = 0.; w_exec = 0.; w_fetch = 0.; w_mem = 0.; w_interp = 0. } in
  (* Returns what the replay must reproduce. *)
  let engine_pass p =
    Spans.group sp "engine" @@ fun () ->
    let eng = Spans.time sp a_create (fun () -> E.create config p.image) in
    let g = E.spawn eng ~tid:0 ~entry:p.image.Image.Gelf.entry () in
    while not g.E.finished do
      let w0 = Gc.minor_words () in
      let t0 = Stat.now_ns () in
      E.step_block eng g;
      let t1 = Stat.now_ns () in
      w.w_engine <- w.w_engine +. (Gc.minor_words () -. w0);
      Spans.leaf sp a_step ~start_ns:t0 ~stop_ns:t1
    done;
    let s = E.stats eng in
    c.executed <- c.executed + s.E.blocks_executed;
    c.engine_translated <- c.engine_translated + s.E.blocks_translated;
    c.lookups <- c.lookups + s.E.lookups;
    c.chain_hits <- c.chain_hits + s.E.chain_hits;
    c.jcache_hits <- c.jcache_hits + s.E.jmp_cache_hits;
    c.table_hits <- c.table_hits + s.E.cache_hits - s.E.chain_hits - s.E.jmp_cache_hits;
    c.cycles <- c.cycles + E.cycles g;
    if not (clean { eng; g }) then c.failed <- c.failed + 1;
    (E.cycles g, guest_regs g, Memsys.Mem.dump (E.memory eng))
  in
  let exec_replay p (cycles, regs, dump) =
    Spans.group sp "exec replay" @@ fun () ->
    let eng2 = E.create config p.image in
    let mem, shared, th = fresh_machine () in
    let probe = Memsys.Mem.create () in
    let blocks = Hashtbl.create 1024 and pcs = ref [] in
    let block pc =
      match Hashtbl.find_opt blocks pc with
      | Some b -> b
      | None ->
          let b =
            match E.fetch eng2 pc with
            | E.Native code -> Some (code, accesses code)
            | E.Interp_only _ -> None
          in
          Hashtbl.add blocks pc b;
          pcs := pc :: !pcs;
          b
    in
    let rec go pc =
      match block pc with
      | None -> false
      | Some (code, acc) -> (
          let w0 = Gc.minor_words () in
          let t0 = Stat.now_ns () in
          Array.iter
            (fun (b, off, store) ->
              let addr = Int64.add th.M.regs.(b) off in
              if store then Memsys.Mem.store probe addr addr
              else ignore (Memsys.Mem.load probe addr))
            acc;
          let t1 = Stat.now_ns () in
          let w1 = Gc.minor_words () in
          let i0 = th.M.insns in
          let exit = M.exec_block shared th code in
          let t2 = Stat.now_ns () in
          w.w_mem <- w.w_mem +. (w1 -. w0);
          w.w_exec <- w.w_exec +. (Gc.minor_words () -. w1);
          Spans.leaf sp a_mem ~start_ns:t0 ~stop_ns:t1;
          Spans.leaf sp a_exec ~start_ns:t1 ~stop_ns:t2;
          c.accesses <- c.accesses + Array.length acc;
          c.host_insns <- c.host_insns + th.M.insns - i0;
          match exit with
          | M.Next_tb pc' | M.Jump pc' -> go pc'
          | M.Halted -> true
          | M.Trapped _ -> false)
    in
    let halted = go p.image.Image.Gelf.entry in
    (* Replay parity: the same cycles, registers and memory. *)
    if
      not
        (halted && th.M.cycles = cycles
        && Array.sub th.M.regs 0 16 = regs
        && Memsys.Mem.dump mem = dump)
    then c.failed <- c.failed + 1;
    (eng2, List.rev !pcs)
  in
  (* The same path on the TCG interpreter, as the engine's degraded
     mode runs it: fresh env per block, registers and lazy flags copied
     in and out. *)
  let interp_replay p eng2 =
    Spans.group sp "interp replay" @@ fun () ->
    let mem, shared, th = fresh_machine () in
    let helpers name args =
      match M.find_helper shared name with
      | Some h -> h shared th args
      | None -> raise (Tcg.Interp.No_helper name)
    in
    let rec go pc n =
      if n < interp_blocks_per_program then begin
        let b = E.tcg_block eng2 pc in
        let env = Tcg.Interp.create_env ~helpers mem in
        for r = 0 to 15 do
          env.Tcg.Interp.temps.(Tcg.Op.guest_reg r) <- th.M.regs.(r)
        done;
        let ca, cb = th.M.cmp in
        env.Tcg.Interp.temps.(Tcg.Op.cmp_a) <- ca;
        env.Tcg.Interp.temps.(Tcg.Op.cmp_b) <- cb;
        let w0 = Gc.minor_words () in
        let t0 = Stat.now_ns () in
        let exit = Tcg.Interp.exec_block env b in
        let t1 = Stat.now_ns () in
        w.w_interp <- w.w_interp +. (Gc.minor_words () -. w0);
        Spans.leaf sp a_interp ~start_ns:t0 ~stop_ns:t1;
        c.interp_blocks <- c.interp_blocks + 1;
        for r = 0 to 15 do
          th.M.regs.(r) <- env.Tcg.Interp.temps.(Tcg.Op.guest_reg r)
        done;
        th.M.cmp <- (env.Tcg.Interp.temps.(Tcg.Op.cmp_a), env.Tcg.Interp.temps.(Tcg.Op.cmp_b));
        match exit with
        | (Tcg.Interp.Next_tb pc' | Tcg.Interp.Jump pc') when not th.M.halted -> go pc' (n + 1)
        | _ -> ()
      end
    in
    go p.image.Image.Gelf.entry 0
  in
  let retranslate p fe pc =
    let img = p.image in
    let raw = Spans.time sp a_frontend (fun () -> Core.Frontend.translate fe pc) in
    let t0 = Stat.now_ns () in
    let next = ref pc in
    for _ = 1 to raw.Tcg.Block.guest_insns do
      let _, len =
        X86.Decode.decode img.Image.Gelf.text ~pc:!next ~base:img.Image.Gelf.text_base
      in
      next := Int64.add !next (Int64.of_int len)
    done;
    Spans.leaf sp a_decode ~start_ns:t0 ~stop_ns:(Stat.now_ns ());
    ignore
      (List.fold_left
         (fun ops pass ->
           let out =
             Spans.time sp (List.assoc pass a_pass) (fun () -> Tcg.Pipeline.run_pass pass ops)
           in
           if pass = Tcg.Pipeline.Fence_merge then begin
             c.fences_in <- c.fences_in + Tcg.Fenceopt.count ops;
             c.fences_out <- c.fences_out + Tcg.Fenceopt.count out
           end;
           out)
         raw.Tcg.Block.ops config.Core.Config.passes);
    let ledger = Tcg.Fence_ledger.create () in
    let optimized =
      Spans.time sp a_pipeline (fun () ->
          Tcg.Pipeline.run ~ledger config.Core.Config.passes raw)
    in
    let code = Spans.time sp a_backend (fun () -> Core.Backend.compile config optimized) in
    c.translated <- c.translated + 1;
    c.decoded <- c.decoded + raw.Tcg.Block.guest_insns;
    c.raw_ops <- c.raw_ops + Tcg.Block.op_count raw;
    c.out_ops <- c.out_ops + Tcg.Block.op_count optimized;
    c.arm_insns <- c.arm_insns + Array.length code;
    c.dmbs <- c.dmbs + dmb_count code
  in
  let translation_replay p pcs =
    Spans.group sp "translation replay" @@ fun () ->
    let eng3 = E.create config p.image in
    let fe = Core.Frontend.create config p.image (Linker.Link.resolve p.image (host_idl ())) in
    let n = List.length pcs in
    for _ = 1 to if n = 0 then 0 else (min_translations + n - 1) / n do
      E.reset eng3;
      List.iter
        (fun pc ->
          let w0 = Gc.minor_words () in
          ignore (Spans.time sp a_fetch (fun () -> E.fetch eng3 pc));
          w.w_fetch <- w.w_fetch +. (Gc.minor_words () -. w0);
          retranslate p fe pc)
        pcs
    done
  in
  let engine_ns = ref 0 in
  List.iter
    (fun p ->
      Spans.group sp p.name @@ fun () ->
      Gc.full_major ();
      let t0 = Stat.now_ns () in
      let reference = engine_pass p in
      engine_ns := !engine_ns + (Stat.now_ns () - t0);
      Gc.full_major ();
      let eng2, pcs = exec_replay p reference in
      interp_replay p eng2;
      Gc.full_major ();
      translation_replay p pcs)
    programs;
  let ns name = float_of_int (Spans.total_ns sp name) in
  let per n x = Stat.ratio x (float_of_int n) in
  let passes =
    List.fold_left (fun s p -> s +. ns (pass_layer p)) 0. config.Core.Config.passes
  in
  let decode = ns "x86.decode" and frontend = ns "core.frontend.translate"
  and pipeline = ns "tcg.pipeline.run" and backend = ns "core.backend.compile"
  and fetch = ns "core.engine.fetch" and step = ns "core.engine.step_block"
  and exec = ns "arm.machine.exec_block" and memsys = ns "memsys.mem" in
  let tr = c.translated and ex = c.executed in
  let us_tr x = per tr x /. 1e3 in
  (* The engine pass's share of each translation layer, at the replayed
     cost per translated block. *)
  let in_engine x = x *. Stat.ratio (float_of_int c.engine_translated) (float_of_int tr) in
  let translate_self = fetch -. frontend -. pipeline -. backend in
  let dispatch_self = step -. exec -. in_engine fetch in
  let self_ns =
    [ ("x86.decode", decode); ("core.frontend (self)", frontend -. decode) ]
    @ List.map (fun p -> (pass_layer p, ns (pass_layer p))) config.Core.Config.passes
    @ [
        ("tcg.pipeline ledger (self)", pipeline -. passes);
        ("core.backend", backend);
        ("core.engine translate (self)", translate_self);
      ]
  in
  let self_ns =
    List.map (fun (n, x) -> (n, in_engine x)) self_ns
    @ [
        ("core.engine dispatch (self)", dispatch_self);
        ("arm.machine (self)", exec -. memsys);
        ("memsys.mem", memsys);
        ("core.engine.create", ns "core.engine.create");
      ]
  in
  let metrics =
    [
      ("x86.decode.ns_per_insn", per c.decoded decode);
      ("core.frontend.us_per_block", us_tr (frontend -. decode));
      ("core.frontend.tcg_ops_per_block", per tr (float_of_int c.raw_ops));
    ]
    @ List.map
        (fun p -> (pass_layer p ^ ".us_per_block", us_tr (ns (pass_layer p))))
        Tcg.Pipeline.all
    @ [
        ("tcg.pipeline.ops_out_per_block", per tr (float_of_int c.out_ops));
        ("tcg.pipeline.ledger_us_per_block", us_tr (pipeline -. passes));
        ( "tcg.fence_merge.removed_ratio",
          per c.fences_in (float_of_int (c.fences_in - c.fences_out)) );
        ("core.backend.us_per_block", us_tr backend);
        ("core.backend.arm_insns_per_block", per tr (float_of_int c.arm_insns));
        ("core.backend.dmbs_per_block", per tr (float_of_int c.dmbs));
        ("core.engine.translate_self_us_per_block", us_tr translate_self);
        ("core.engine.dispatch_self_ns_per_block", per ex dispatch_self);
        ( "core.engine.dispatch_minor_words_per_block",
          per ex (w.w_engine -. w.w_exec -. in_engine w.w_fetch) );
        ("core.tbchain.chain_hit_ratio", per c.lookups (float_of_int c.chain_hits));
        ("core.tbchain.jcache_hit_ratio", per c.lookups (float_of_int c.jcache_hits));
        ("core.tbchain.table_hit_ratio", per c.lookups (float_of_int c.table_hits));
        ("arm.machine.ns_per_block", per ex (exec -. memsys));
        ("arm.machine.ns_per_host_insn", per c.host_insns (exec -. memsys));
        ("arm.machine.minor_words_per_block", per ex (w.w_exec -. w.w_mem));
        ("arm.machine.model_cycles_per_block", per ex (float_of_int c.cycles));
        ("memsys.mem.accesses_per_block", per ex (float_of_int c.accesses));
        ("memsys.mem.ns_per_access", per c.accesses memsys);
        ("memsys.mem.minor_words_per_access", per c.accesses w.w_mem);
        ("tcg.interp.ns_per_block", per c.interp_blocks (ns "tcg.interp.exec_block"));
        ("tcg.interp.minor_words_per_block", per c.interp_blocks w.w_interp);
      ]
  in
  {
    Workload.metrics;
    self_s = List.map (fun (n, x) -> (n, x *. 1e-9)) self_ns;
    table_s = float_of_int !engine_ns *. 1e-9;
    traced_s = float_of_int !engine_ns *. 1e-9;
    failed = c.failed;
  }

(* ------------------------------------------------------------------ *)
(* Gates and timed reps                                                *)

let instance programs =
  let expected = ref [] in
  let gates () =
    (* The engine runs here double as the untimed warm-up rep. *)
    let checks =
      List.map
        (fun p ->
          let o = run_engine p in
          match oracle p with
          | Some (regs, mem) ->
              let ok = clean o && state_matches ~regs ~mem o in
              (ok, { regs; mem; cycles = E.cycles o.g })
          | None -> (false, { regs = [||]; mem = []; cycles = -1 }))
        programs
    in
    expected := List.map snd checks;
    (List.length checks, List.length (List.filter (fun (ok, _) -> not ok) checks))
  in
  let rep () =
    let outs = List.map run_engine programs in
    {
      Workload.ops = List.fold_left (fun n o -> n + blocks o) 0 outs;
      verify = (fun () -> List.length (List.filter not (List.map2 matches !expected outs)));
    }
  in
  { Workload.rep; gates; traced = traced programs }

let workloads =
  [
    {
      Workload.name = "kernel-mix";
      setup = (fun ~seed ~scale ~out:_ -> instance (kernel_mix ~seed ~scale));
    };
    {
      Workload.name = "cold-code";
      setup = (fun ~seed ~scale ~out:_ -> instance (cold_code ~seed ~scale));
    };
  ]
