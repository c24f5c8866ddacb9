(* Reflected CRC-32, polynomial 0xEDB88320 (IEEE), one 256-entry table
   computed at load time.  Matches zlib's crc32(): empty string -> 0,
   "123456789" -> 0xCBF43926. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest_sub ?(crc = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest_sub";
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let digest ?crc s = digest_sub ?crc s ~pos:0 ~len:(String.length s)

let to_hex crc = Printf.sprintf "%08lx" (Int32.logand crc 0xFFFFFFFFl)

let of_hex s =
  if String.length s <> 8 then None
  else
    match Int64.of_string_opt ("0x" ^ s) with
    | Some v when v >= 0L && v <= 0xFFFFFFFFL -> Some (Int64.to_int32 v)
    | Some _ | None -> None
