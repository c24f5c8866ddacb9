(* Guest memory as 4 KiB pages of unboxed words.  Each page carries a
   bitmap of the words ever stored to, so [dump] lists exactly the
   words the old word-keyed table held (a stored zero included) and
   nothing a load merely read.  Words are read and written in native
   byte order; byte accesses go through the containing word, so the
   layout never shows. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_words = page_size / 8

type page = { words : Bytes.t; written : Bytes.t (* one bit per word *) }

module Tbl = Hashtbl.Make (Int)

type line = { mutable owner : int; mutable sharers : int list }

(* Recently used pages, direct-mapped by the low bits of the page
   number, so a block that alternates between its stack and its data
   does not probe [pages] on every access. *)
let recent_slots = 16

type t = {
  pages : page Tbl.t;  (* page number (addr lsr 12) -> page *)
  recent_pn : int array;  (* page number cached in each slot, or -1 *)
  recent : page array;
      (* the page [recent_pn] names: a real page, or [zero_page] when it
         was never written *)
  lines : line Tbl.t;  (* cache line (addr lsr 6) -> owner and sharers *)
}

(* Stands in for every page never written.  Shared by all memories and
   never stored to: a store first swaps in a real page. *)
let zero_page = { words = Bytes.make 8 '\000'; written = Bytes.make 1 '\000' }

let create () =
  {
    pages = Tbl.create 64;
    recent_pn = Array.make recent_slots (-1);
    recent = Array.make recent_slots zero_page;
    lines = Tbl.create 64;
  }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Logical shifts: an address with the top bit set is just a large
   page or line number, never a negative one. *)
let page_number addr = Int64.to_int (Int64.shift_right_logical addr page_bits)

(* Byte offset of [addr]'s (8-aligned) word within its page. *)
let word_offset addr = Int64.to_int addr land (page_size - 8)

let slot pn = pn land (recent_slots - 1)

let find_page m pn =
  let i = slot pn in
  if m.recent_pn.(i) = pn then m.recent.(i)
  else begin
    let p = match Tbl.find m.pages pn with p -> p | exception Not_found -> zero_page in
    m.recent_pn.(i) <- pn;
    m.recent.(i) <- p;
    p
  end

let page_for_store m pn =
  let p = find_page m pn in
  if p != zero_page then p
  else begin
    let p =
      { words = Bytes.make page_size '\000'; written = Bytes.make (page_words / 8) '\000' }
    in
    Tbl.replace m.pages pn p;
    m.recent.(slot pn) <- p;
    p
  end

(* The sum is formed here, so it stays unboxed: a caller passing two
   existing boxes allocates nothing for the address. *)
let load_at m base off =
  let addr = Int64.add base off in
  let p = find_page m (page_number addr) in
  if p == zero_page then 0L else get64 p.words (word_offset addr)

let load m addr = load_at m addr 0L

let mark_written p off =
  let w = off lsr 3 in
  let i = w lsr 3 in
  Bytes.unsafe_set p.written i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get p.written i) lor (1 lsl (w land 7))))

let store_at m base off v =
  let addr = Int64.add base off in
  let p = page_for_store m (page_number addr) in
  let off = word_offset addr in
  set64 p.words off v;
  mark_written p off

let store m addr v = store_at m addr 0L v

let byte_shift addr = 8 * (Int64.to_int addr land 7)

let load_byte m addr =
  Int64.to_int (Int64.shift_right_logical (load m addr) (byte_shift addr)) land 0xFF

let store_byte m addr b =
  let shift = byte_shift addr in
  let mask = Int64.shift_left 0xFFL shift in
  store m addr
    (Int64.logor
       (Int64.logand (load m addr) (Int64.lognot mask))
       (Int64.shift_left (Int64.of_int (b land 0xFF)) shift))

let line addr = Int64.to_int (Int64.shift_right_logical addr 6)

let owner m addr =
  match Tbl.find m.lines (line addr) with
  | l -> Some l.owner
  | exception Not_found -> None

let sharers m addr =
  match Tbl.find m.lines (line addr) with
  | l -> List.length l.sharers
  | exception Not_found -> 0

let acquire_line m addr ~tid =
  let k = line addr in
  match Tbl.find m.lines k with
  | exception Not_found ->
      Tbl.replace m.lines k { owner = tid; sharers = [ tid ] };
      false
  | l ->
      if not (List.mem tid l.sharers) then l.sharers <- tid :: l.sharers;
      if l.owner = tid then false
      else begin
        l.owner <- tid;
        true
      end

let clear m =
  Tbl.reset m.pages;
  Tbl.reset m.lines;
  Array.fill m.recent_pn 0 recent_slots (-1);
  Array.fill m.recent 0 recent_slots zero_page

let dump m =
  Tbl.fold
    (fun pn p acc ->
      let base = Int64.shift_left (Int64.of_int pn) page_bits in
      let acc = ref acc in
      for w = 0 to page_words - 1 do
        if Char.code (Bytes.unsafe_get p.written (w lsr 3)) land (1 lsl (w land 7)) <> 0
        then
          acc := (Int64.add base (Int64.of_int (w * 8)), get64 p.words (w * 8)) :: !acc
      done;
      !acc)
    m.pages []
  |> List.sort compare
