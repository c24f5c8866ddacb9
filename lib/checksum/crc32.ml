(* Reflected CRC-32, polynomial 0xEDB88320 (IEEE), one 256-entry table
   computed at load time.  Matches zlib's crc32(): empty string -> 0,
   "123456789" -> 0xCBF43926.

   The running checksum is a native int holding 32 bits (OCaml ints are
   63 bits wide), so the byte loop allocates nothing; [int32] appears
   only at the interface. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF
let to_int crc = Int32.to_int crc land mask

let digest_sub ?(crc = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub";
  let c = ref (to_int crc lxor mask) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor mask)

let digest ?crc s = digest_sub ?crc s ~pos:0 ~len:(String.length s)

let hex_digits = "0123456789abcdef"

let to_hex crc =
  let c = to_int crc in
  String.init 8 (fun i -> hex_digits.[(c lsr (4 * (7 - i))) land 0xF])

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= mask -> Some (Int32.of_int v)
    | Some _ | None -> None
