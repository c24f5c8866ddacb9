(* Guest memory: the page-array [Memsys.Mem] against a reference model,
   plus regressions for addresses with the top bit set. *)

module Mem = Memsys.Mem

let check_int = Alcotest.check Alcotest.int
let check_i64 = Alcotest.check Alcotest.int64
let check_bool = Alcotest.check Alcotest.bool

(* The reference: one boxed word per table entry, the representation
   [Mem] had before pages, with unsigned byte and line arithmetic. *)
module Ref = struct
  type t = {
    words : (int64, int64) Hashtbl.t;
    owners : (int64, int) Hashtbl.t;
    line_sharers : (int64, int list) Hashtbl.t;
  }

  let create () =
    { words = Hashtbl.create 64; owners = Hashtbl.create 8; line_sharers = Hashtbl.create 8 }

  let word_addr addr = Int64.logand addr (Int64.lognot 7L)
  let load m addr = Option.value ~default:0L (Hashtbl.find_opt m.words (word_addr addr))
  let store m addr v = Hashtbl.replace m.words (word_addr addr) v
  let shift addr = 8 * (Int64.to_int addr land 7)

  let load_byte m addr =
    Int64.to_int (Int64.logand (Int64.shift_right_logical (load m addr) (shift addr)) 0xFFL)

  let store_byte m addr b =
    let mask = Int64.shift_left 0xFFL (shift addr) in
    store m addr
      (Int64.logor
         (Int64.logand (load m addr) (Int64.lognot mask))
         (Int64.shift_left (Int64.of_int (b land 0xFF)) (shift addr)))

  let line addr = Int64.shift_right_logical addr 6
  let owner m addr = Hashtbl.find_opt m.owners (line addr)

  let sharers m addr =
    match Hashtbl.find_opt m.line_sharers (line addr) with Some l -> List.length l | None -> 0

  let acquire_line m addr ~tid =
    let l = line addr in
    (match Hashtbl.find_opt m.line_sharers l with
    | Some ts when List.mem tid ts -> ()
    | Some ts -> Hashtbl.replace m.line_sharers l (tid :: ts)
    | None -> Hashtbl.replace m.line_sharers l [ tid ]);
    match Hashtbl.find_opt m.owners l with
    | Some t when t = tid -> false
    | Some _ ->
        Hashtbl.replace m.owners l tid;
        true
    | None ->
        Hashtbl.replace m.owners l tid;
        false

  let clear m =
    Hashtbl.reset m.words;
    Hashtbl.reset m.owners;
    Hashtbl.reset m.line_sharers

  let dump m = Hashtbl.fold (fun a v acc -> (a, v) :: acc) m.words [] |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Regressions: top-bit-set addresses                                  *)

let top = 0xFFFF_FFFF_FFFF_FFF9L

let test_top_bit_bytes () =
  let m = Mem.create () in
  Mem.store_byte m top 0xAB;
  Mem.store_byte m (Int64.add top 2L) 0xCD;
  check_int "byte read back" 0xAB (Mem.load_byte m top);
  check_int "neighbour byte" 0xCD (Mem.load_byte m (Int64.add top 2L));
  check_int "untouched byte" 0 (Mem.load_byte m (Int64.sub top 1L));
  check_i64 "little-endian word" 0xCD00AB00L (Mem.load m 0xFFFF_FFFF_FFFF_FFF8L);
  check_bool "dump" true (Mem.dump m = [ (0xFFFF_FFFF_FFFF_FFF8L, 0xCD00AB00L) ])

let test_top_bit_lines () =
  let m = Mem.create () in
  (* -8 and 8 are 16 bytes apart but on different 64-byte lines (the
     last line of the address space and the first). *)
  ignore (Mem.acquire_line m (-8L) ~tid:0);
  check_bool "first acquire moves nothing" false (Mem.acquire_line m 8L ~tid:1);
  check_int "one sharer at 8" 1 (Mem.sharers m 8L);
  check_int "one sharer at -8" 1 (Mem.sharers m (-8L));
  check_bool "owner of -8" true (Mem.owner m (-8L) = Some 0);
  check_bool "owner of 8" true (Mem.owner m 8L = Some 1);
  check_bool "same line, other end" true (Mem.owner m (-64L) = Some 0);
  check_bool "line boundary" true (Mem.owner m (-65L) = None)

let test_unwritten_pages () =
  let m = Mem.create () in
  check_i64 "never written" 0L (Mem.load m 0x1234_5678L);
  check_int "never written byte" 0 (Mem.load_byte m 0x1234_5679L);
  check_bool "loads leave no trace" true (Mem.dump m = []);
  Mem.store m 0x1234_5678L 0L;
  check_bool "a stored zero is dumped" true (Mem.dump m = [ (0x1234_5678L, 0L) ]);
  Mem.clear m;
  check_bool "clear empties" true (Mem.dump m = []);
  check_i64 "cleared word" 0L (Mem.load m 0x1234_5678L)

(* ------------------------------------------------------------------ *)
(* Differential: random operation sequences, Mem vs Ref                *)

type op =
  | Load of int64
  | Store of int64 * int64
  | Load_byte of int64
  | Store_byte of int64 * int
  | Acquire of int64 * int
  | Sharers of int64
  | Owner of int64
  | Clear

let pp_op = function
  | Load a -> Printf.sprintf "load %Lx" a
  | Store (a, v) -> Printf.sprintf "store %Lx %Ld" a v
  | Load_byte a -> Printf.sprintf "load_byte %Lx" a
  | Store_byte (a, b) -> Printf.sprintf "store_byte %Lx %d" a b
  | Acquire (a, t) -> Printf.sprintf "acquire %Lx T%d" a t
  | Sharers a -> Printf.sprintf "sharers %Lx" a
  | Owner a -> Printf.sprintf "owner %Lx" a
  | Clear -> "clear"

(* Addresses cluster on a few bases so sequences revisit words, lines
   and pages: page boundaries (offsets run past 4 KiB), pages that
   share a slot of Mem's recent-page cache (bases 64 KiB apart), the
   stack, both sides of the sign bit, and the top of the address space.
   Offsets are byte-granular, so word accesses are often unaligned. *)
let bases =
  [
    0L; 0x1000L; 0x11000L; 0x21000L; 0x7FFF_0000L; 0x7FFF_FFFF_FFFF_F000L;
    Int64.min_int; 0xFFFF_FFFF_FFFF_F000L; -0x40L;
  ]

let addr_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 9,
        map2
          (fun b off -> Int64.add b (Int64.of_int off))
          (oneofl bases)
          (frequency [ (2, int_bound 0x80); (1, int_bound 0x1100) ]) );
      (1, map Int64.of_int int);
      (1, ui64);
    ]

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map (fun a -> Load a) addr_gen);
      (4, map2 (fun a v -> Store (a, v)) addr_gen ui64);
      (2, map (fun a -> Load_byte a) addr_gen);
      (2, map2 (fun a b -> Store_byte (a, b)) addr_gen (int_bound 255));
      (2, map2 (fun a t -> Acquire (a, t)) addr_gen (int_bound 3));
      (1, map (fun a -> Sharers a) addr_gen);
      (1, map (fun a -> Owner a) addr_gen);
      (1, return Clear);
    ]

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Every result must agree, and so must the final dump. *)
let agrees ops =
  let m = Mem.create () and r = Ref.create () in
  List.for_all
    (fun op ->
      match op with
      | Load a -> Int64.equal (Mem.load m a) (Ref.load r a)
      | Store (a, v) ->
          Mem.store m a v;
          Ref.store r a v;
          true
      | Load_byte a -> Mem.load_byte m a = Ref.load_byte r a
      | Store_byte (a, b) ->
          Mem.store_byte m a b;
          Ref.store_byte r a b;
          true
      | Acquire (a, tid) -> Mem.acquire_line m a ~tid = Ref.acquire_line r a ~tid
      | Sharers a -> Mem.sharers m a = Ref.sharers r a
      | Owner a -> Mem.owner m a = Ref.owner r a
      | Clear ->
          Mem.clear m;
          Ref.clear r;
          true)
    ops
  && Mem.dump m = Ref.dump r

let prop_differential =
  QCheck.Test.make ~name:"Mem = reference model on random sequences" ~count:500 ops_arb
    agrees

(* ------------------------------------------------------------------ *)
(* Base + offset: load_at/store_at = load/store at the sum             *)

type at_op = Load_at of int64 * int64 | Store_at of int64 * int64 * int64

let pp_at_op = function
  | Load_at (b, o) -> Printf.sprintf "load_at %Lx %Ld" b o
  | Store_at (b, o, v) -> Printf.sprintf "store_at %Lx %Ld %Ld" b o v

(* Offsets small either way (unaligned, crossing pages, below the
   base), and ones whose sum wraps past either end of the address
   space or lands on the other side of the sign bit. *)
let off_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map Int64.of_int (int_range (-0x1100) 0x1100));
      (1, oneofl [ Int64.min_int; Int64.max_int; -1L; -0x1000L; 0x40L; Int64.neg 0x7FFF_0000L ]);
      (1, ui64);
    ]

let at_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_at_op ops))
    (list_size (int_range 1 80)
       (frequency
          [
            (1, map2 (fun b o -> Load_at (b, o)) addr_gen off_gen);
            (1, map3 (fun b o v -> Store_at (b, o, v)) addr_gen off_gen ui64);
          ]))

(* Three memories see the same accesses: [m] by base and offset, [m']
   by the sum through [load]/[store], [r] (the reference) by the sum.
   Loads agree, including on pages never written (read through the
   shared zero page), then byte stores and loads at every address
   touched, and the dumps. *)
let agrees_at ops =
  let m = Mem.create () and m' = Mem.create () and r = Ref.create () in
  let loads_agree b o =
    let a = Int64.add b o in
    let v = Mem.load_at m b o in
    Int64.equal v (Mem.load m' a) && Int64.equal v (Ref.load r a)
  in
  List.for_all
    (function
      | Load_at (b, o) -> loads_agree b o
      | Store_at (b, o, v) ->
          Mem.store_at m b o v;
          Mem.store m' (Int64.add b o) v;
          Ref.store r (Int64.add b o) v;
          true)
    ops
  && List.for_all
       (fun op ->
         let b, o = match op with Load_at (b, o) | Store_at (b, o, _) -> (b, o) in
         let a = Int64.add b o in
         let byte = Int64.to_int (Int64.logand a 0xFFL) in
         Mem.store_byte m a byte;
         Mem.store_byte m' a byte;
         Ref.store_byte r a byte;
         Mem.load_byte m a = Ref.load_byte r a
         && Mem.load_byte m' (Int64.add a 1L) = Ref.load_byte r (Int64.add a 1L)
         && loads_agree b o)
       ops
  && Mem.dump m = Ref.dump r
  && Mem.dump m' = Ref.dump r

let prop_at =
  QCheck.Test.make ~name:"load_at/store_at = load/store at the wrapped sum" ~count:500
    at_arb agrees_at

let () =
  Alcotest.run "memsys"
    [
      ( "top bit",
        [
          Alcotest.test_case "byte access" `Quick test_top_bit_bytes;
          Alcotest.test_case "cache lines" `Quick test_top_bit_lines;
        ] );
      ( "pages",
        [ Alcotest.test_case "unwritten pages" `Quick test_unwritten_pages ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_at;
        ] );
    ]
