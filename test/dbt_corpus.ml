(* The DBT's differential corpus, defined once for every suite that
   checks two ways of running a guest agree (test_core, test_dispatch,
   test_tiers, test_flight, test_obs, test_fault, test_resilience): the
   named example programs, the fault plans, one QCheck program
   generator, the 16-kernel pass, and the fingerprint a run is compared
   by.  Each parity property (DBT = x86 oracle, eager = degraded,
   recorder on = off, obs on = off) runs over all of it. *)

module I = X86.Insn
module R = X86.Reg
open X86.Asm

let build items = Image.Gelf.build ~entry:"main" items

let run_config config image =
  let eng = Core.Engine.create config image in
  let g = Core.Engine.run eng in
  (g, eng)

(* ------------------------------------------------------------------ *)
(* Example programs                                                    *)

(* RDX := n + (n-1) + ... + 1, each term stored to and reloaded from
   0x5000. *)
let countdown_n n =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, Int64.of_int n));
    Label "loop";
    Ins (I.Store (I.abs 0x5000L, I.R R.RBX));
    Ins (I.Load (R.RCX, I.abs 0x5000L));
    Ins (I.Alu (I.Add, R.RDX, I.R R.RCX));
    Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
    Ins (I.Cmp (R.RBX, I.I 0L));
    Jcc_lbl (I.Ne, "loop");
    Ins I.Hlt;
  ]

let countdown = countdown_n 25

(* 10! through a call, a flag test and a return; stored at 0x5000. *)
let fact =
  [
    Label "main";
    Ins (I.Mov_ri (R.RDI, 10L));
    Call_lbl "fact";
    Ins (I.Store (I.abs 0x5000L, I.R R.RAX));
    Ins I.Hlt;
    Label "fact";
    Ins (I.Mov_ri (R.RAX, 1L));
    Label "floop";
    Ins (I.Test (R.RDI, I.R R.RDI));
    Jcc_lbl (I.E, "fdone");
    Ins (I.Alu (I.Imul, R.RAX, I.R R.RDI));
    Ins (I.Dec R.RDI);
    Jmp_lbl "floop";
    Label "fdone";
    Ins I.Ret;
  ]

(* A loop whose body overflows the block cap: the hot path spans a
   straight-line seam, so one half can be native and the other
   interpreted. *)
let split =
  let body =
    List.concat_map
      (fun k ->
        let m = I.abs (Int64.of_int (0x6000 + (8 * k))) in
        [
          Ins (I.Store (m, I.R R.RSI));
          Ins (I.Load (R.RDI, m));
          Ins (I.Alu (I.Add, R.RSI, I.R R.RDI));
        ])
      (List.init 12 Fun.id)
  in
  [ Label "main"; Ins (I.Mov_ri (R.RBX, 20L)); Ins (I.Mov_ri (R.RSI, 7L)); Label "loop" ]
  @ body
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

(* A loop whose block cap falls between [cmp] and [jne]: the lazy flags
   cross a block boundary, so every interpreted/native seam must carry
   them.  Both operands are nonzero registers, so losing either flag
   global changes the trip count. *)
let flags_seam =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 6L));
    Ins (I.Mov_ri (R.RCX, 2L));
    Jmp_lbl "loop";
    Label "loop";
  ]
  @ List.init 30 (fun _ -> Ins (I.Inc R.RDX))
  @ [
      Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
      Ins (I.Cmp (R.RBX, I.R R.RCX));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

(* R13 := 77 after a 5-step countdown: the result the fault and cache
   recovery tests check. *)
let countdown_5 =
  [
    Label "main";
    Ins (I.Mov_ri (R.RBX, 5L));
    Label "loop";
    Ins (I.Alu (I.Sub, R.RBX, I.I 1L));
    Ins (I.Cmp (R.RBX, I.I 0L));
    Jcc_lbl (I.Ne, "loop");
    Ins (I.Mov_ri (R.R13, 77L));
    Ins I.Hlt;
  ]

let examples =
  [
    ("countdown", countdown);
    ("fact", fact);
    ("split", split);
    ("flags-seam", flags_seam);
    ("countdown-5", countdown_5);
  ]

(* Every instruction shape of the benchmark's cold-code workload. *)
let cold_shapes =
  [
    I.Load (R.RAX, I.based R.RBX 8L);
    I.Store (I.based R.RBX 136L, I.R R.RAX);
    I.Alu (I.Add, R.RCX, I.I 3L);
    I.Alu (I.Xor, R.RDX, I.R R.RCX);
    I.Fp (I.Fmul, R.RSI, R.RSI);
    I.Load (R.RAX, I.based R.RBX 64L);
    I.Alu (I.Shl, R.RCX, I.I 1L);
    I.Fp (I.Fadd, R.RSI, R.RSI);
    I.Alu (I.Sub, R.RDX, I.I 1L);
    I.Mov_ri (R.R8, 1L);
    I.Lock_xadd (I.based R.R14 0L, R.R8);
    I.Mfence;
  ]

(* The cold shapes, cycled, as one straight line of [blocks] full
   blocks. *)
let cold_items blocks =
  let n = List.length cold_shapes in
  let insns =
    List.init (blocks * Core.Frontend.max_block_insns) (fun k -> List.nth cold_shapes (k mod n))
  in
  (Label "main" :: List.map (fun i -> Ins i) insns) @ [ Ins I.Hlt ]

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)

(* Every compile fails, so every block runs on the interpreter. *)
let all_degraded = [ Core.Inject.Always Core.Inject.Compile ]

(* About half the compiles fail: native and interpreted blocks alternate
   along the same paths. *)
let mixed_degraded =
  [ Core.Inject.Seeded { site = Core.Inject.Compile; seed = 42L; permille = 500 } ]

let plans =
  Core.Inject.
    [
      [ Nth (Compile, 1) ];
      (* One block of flags-seam left on the interpreter, the other
         native, in both orders. *)
      [ Nth (Compile, 2) ];
      [ Nth (Compile, 3) ];
      all_degraded;
      mixed_degraded;
      [ Nth (Decode, 3) ];
      [ Always Decode ];
      [ Nth (Host_call, 1) ];
    ]

(* [config] with [plan]'s faults added to its own. *)
let degrade plan config = { config with Core.Config.inject = config.Core.Config.inject @ plan }

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)

(* Straight-line bodies over RAX..RDI and eight words at 0x5000: moves,
   loads, stores, ALU and FP ops, flags, cmov, the three RMWs, fences
   and pushes. *)
let arb_insns =
  let open QCheck in
  let reg = map R.of_index (int_range 0 5) in
  let mem_op = map (fun k -> I.abs (Int64.of_int (0x5000 + (8 * k)))) (int_range 0 7) in
  let alu = oneofl [ I.Add; I.Sub; I.And; I.Or; I.Xor; I.Imul ] in
  small_list
    (oneof
       [
         map (fun (r, i) -> I.Mov_ri (r, Int64.of_int i)) (pair reg small_int);
         map (fun (a, b) -> I.Mov_rr (a, b)) (pair reg reg);
         map (fun (r, m) -> I.Load (r, m)) (pair reg mem_op);
         map (fun (m, r) -> I.Store (m, I.R r)) (pair mem_op reg);
         map (fun (m, i) -> I.Store (m, I.I (Int64.of_int i))) (pair mem_op small_int);
         map (fun (op, r, r2) -> I.Alu (op, r, I.R r2)) (triple alu reg reg);
         map
           (fun (op, r, i) -> I.Alu (op, r, I.I (Int64.of_int i)))
           (triple alu reg (int_range (-100) 100));
         map (fun (op, a, b) -> I.Fp (op, a, b)) (triple (oneofl I.[ Fadd; Fsub; Fmul ]) reg reg);
         map (fun r -> I.Inc r) reg;
         map (fun r -> I.Dec r) reg;
         map (fun r -> I.Neg r) reg;
         map (fun r -> I.Not r) reg;
         map (fun (r, m) -> I.Lea (r, m)) (pair reg mem_op);
         map (fun (r, r2) -> I.Test (r, I.R r2)) (pair reg reg);
         map (fun (cc, a, b) -> I.Cmov (cc, a, b)) (triple (oneofl I.[ E; Ne; L; A ]) reg reg);
         map (fun (m, r) -> I.Lock_cmpxchg (m, r)) (pair mem_op reg);
         map (fun (m, r) -> I.Lock_xadd (m, r)) (pair mem_op reg);
         map (fun (m, r) -> I.Xchg (m, r)) (pair mem_op reg);
         always I.Mfence;
         always I.Nop;
         map (fun r -> I.Push r) reg;
       ])

(* A body run [iters] times by a loop counted down in R15, which the
   body never names, and padded with nops past the block cap: the loop
   spans at least two blocks and each runs more than once. *)
let looped (iters, insns) =
  let pad = List.init (Core.Frontend.max_block_insns + 8) (fun _ -> I.Nop) in
  [ Label "main"; Ins (I.Mov_ri (R.R15, Int64.of_int iters)); Label "loop" ]
  @ List.map (fun i -> Ins i) (insns @ pad)
  @ [
      Ins (I.Alu (I.Sub, R.R15, I.I 1L));
      Ins (I.Cmp (R.R15, I.I 0L));
      Jcc_lbl (I.Ne, "loop");
      Ins I.Hlt;
    ]

(* [looped]'s argument: 4 to 12 iterations of a generated body.  A
   failing property shrinks the body's instruction list and the
   iteration count (never below 4), and prints what is left. *)
let arb_program =
  QCheck.make
    ~print:(fun (iters, insns) ->
      String.concat "\n"
        (Printf.sprintf "%d iterations of:" iters :: List.map (Fmt.str "%a" I.pp) insns))
    ~shrink:QCheck.Shrink.(pair (filter (fun n -> n >= 4) int) list)
    (QCheck.Gen.pair (QCheck.Gen.int_range 4 12) (QCheck.gen arb_insns))

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)

(* Guest-visible state: registers RAX..R15 plus memory. *)
let state g eng =
  (Array.sub g.Core.Engine.arm.Arm.Machine.regs 0 16, Memsys.Mem.dump (Core.Engine.memory eng))

(* Everything a run shows: guest state, cycles, the trap if any, whether
   the thread finished, and every engine statistic. *)
type fingerprint = {
  state : int64 array * (int64 * int64) list;
  cycles : int;
  trap : Core.Fault.t option;
  finished : bool;
  stats : Core.Engine.stats;
}

let observe g eng =
  {
    state = state g eng;
    cycles = Core.Engine.cycles g;
    trap = Core.Engine.trap g;
    finished = g.Core.Engine.finished;
    stats = Core.Engine.stats eng;
  }

let fingerprint config image =
  let g, eng = run_config config image in
  observe g eng

(* One pass over the 16 PARSEC/Phoenix kernels under [config]: each
   kernel's name and fingerprint, and the minor words the pass
   allocated, fingerprinting included. *)
let kernel_pass config =
  let w0 = Gc.minor_words () in
  let runs =
    List.map
      (fun (b : Harness.Parsec.bench) ->
        let spec = b.Harness.Parsec.spec in
        let g, eng = Harness.Kernel.run_dbt config spec in
        (spec.Harness.Kernel.name, observe g eng))
      Harness.Parsec.all
  in
  (runs, Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)

(* One way of running an image under a config, by name. *)
type variant = string * (Core.Config.t -> Image.Gelf.t -> fingerprint)

(* Run every variant on [image] and fail, naming [label] and the
   variant, unless each fingerprint seen through [key] equals the first
   variant's. *)
let agree ~key (variants : variant list) label config image =
  match variants with
  | [] -> ()
  | (v0, run0) :: rest ->
      let k0 = key (run0 config image) in
      List.iter
        (fun (v, run) ->
          if key (run config image) <> k0 then
            Alcotest.failf "%s: %s differs from %s" label v v0)
        rest

(* [agree] on every example program under every preset, once under
   each fault plan of [plans]. *)
let agree_on_examples ~key ~plans variants =
  List.iter
    (fun (config : Core.Config.t) ->
      List.iter
        (fun (pname, items) ->
          let image = build items in
          List.iter
            (fun plan ->
              let label =
                Printf.sprintf "%s/%s/[%s]" config.name pname (Core.Inject.plan_to_string plan)
              in
              agree ~key variants label { config with inject = plan } image)
            plans)
        examples)
    Core.Config.all

(* [agree] on [count] generated programs under every preset. *)
let agree_on_generated ~name ~count ~key variants =
  QCheck.Test.make ~name ~count arb_program (fun p ->
      let image = build (looped p) in
      List.iter
        (fun (config : Core.Config.t) -> agree ~key variants config.name config image)
        Core.Config.all;
      true)
