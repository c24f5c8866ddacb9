(* Golden check of the backend's output: the CRC-32 of the persistent
   translation cache ([Engine.save_cache]) after running each of the
   16 kernels, one straight-line guest built from every instruction
   shape of the cold-code benchmark workload, and one guest with each
   x86 RMW, under each of the four presets and Risotto with the RMW2
   lowering.  Any change to the translated host code of these programs
   changes a line of the output. *)

module I = X86.Insn
module R = X86.Reg

(* Straight-line guest: seeded draws over the cold-code shapes (load,
   store, the four ALU forms, fmul/fadd, mov + lock xadd, mfence), cut
   by the frontend into blocks of [Frontend.max_block_insns]. *)
let cold_shapes =
  let open X86.Asm in
  let st = Random.State.make [| 19 |] in
  let body = ref [] in
  let emit i = body := Ins i :: !body in
  for _ = 1 to 400 do
    let slot = Int64.of_int (8 * Random.State.int st 16) in
    match Random.State.int st 10 with
    | 0 | 1 -> emit (I.Load (R.RAX, I.based R.RBX slot))
    | 2 -> emit (I.Store (I.based R.RBX (Int64.add 128L slot), I.R R.RAX))
    | 3 -> emit (I.Alu (I.Add, R.RCX, I.I 3L))
    | 4 -> emit (I.Alu (I.Xor, R.RDX, I.R R.RCX))
    | 5 -> emit (I.Alu (I.Shl, R.RCX, I.I 1L))
    | 6 -> emit (I.Alu (I.Sub, R.RDX, I.I 1L))
    | 7 -> emit (I.Fp ((if Random.State.bool st then I.Fmul else I.Fadd), R.RSI, R.RSI))
    | 8 ->
        emit (I.Mov_ri (R.R8, 1L));
        emit (I.Lock_xadd (I.based R.R14 0L, R.R8))
    | _ -> emit I.Mfence
  done;
  Image.Gelf.build ~entry:"main"
    ([
       Label "main";
       Ins (I.Mov_ri (R.RBX, 0x20000L));
       Ins (I.Mov_ri (R.R14, 0x20400L));
       Ins (I.Mov_ri (R.RCX, 1L));
       Ins (I.Mov_ri (R.RDX, 2L));
       Ins (I.Mov_ri (R.R8, 1L));
       Ins (I.Mov_ri (R.RSI, Int64.bits_of_float 1.000001));
     ]
    @ List.rev (Ins I.Hlt :: !body))

(* Every x86 RMW the frontend translates: LOCK CMPXCHG (one success,
   one failure), LOCK XADD and XCHG, in one block. *)
let rmws =
  let open X86.Asm in
  Image.Gelf.build ~entry:"main"
    [
      Label "main";
      Ins (I.Mov_ri (R.RBX, 0x20000L));
      Ins (I.Mov_ri (R.RAX, 0L));
      Ins (I.Mov_ri (R.RCX, 5L));
      Ins (I.Lock_cmpxchg (I.based R.RBX 0L, R.RCX));
      Ins (I.Lock_cmpxchg (I.based R.RBX 0L, R.RCX));
      Ins (I.Mov_ri (R.RDX, 3L));
      Ins (I.Lock_xadd (I.based R.RBX 8L, R.RDX));
      Ins (I.Lock_xadd (I.based R.RBX 8L, R.RDX));
      Ins (I.Mov_ri (R.RSI, 7L));
      Ins (I.Xchg (I.based R.RBX 16L, R.RSI));
      Ins (I.Xchg (I.based R.RBX 16L, R.RSI));
      Ins I.Hlt;
    ]

let programs =
  List.map
    (fun b ->
      let s = b.Harness.Parsec.spec in
      (s.Harness.Kernel.name, Image.Gelf.build ~entry:"main" (Harness.Kernel.to_x86 s)))
    Harness.Parsec.all
  @ [ ("cold-shapes", cold_shapes); ("rmws", rmws) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let path = Filename.temp_file "golden" ".rstc" in
  List.iter
    (fun (config : Core.Config.t) ->
      List.iter
        (fun (name, image) ->
          let eng = Core.Engine.create config image in
          let g = Core.Engine.run eng in
          let blocks = Core.Engine.save_cache eng path in
          Printf.printf "%-9s %-16s halted=%b blocks=%d crc=%s\n" config.name name
            (Core.Engine.trap g = None && g.Core.Engine.finished)
            blocks
            (Checksum.Crc32.to_hex (Checksum.Crc32.digest (read_file path))))
        programs)
    (Core.Config.all
    @ [ { Core.Config.risotto with name = "rmw2"; rmw = Mapping.Schemes.Risotto_rmw2 } ]);
  Sys.remove path
