(* Journal layout:

     RJNL1\n
     R <len:8 hex> <crc:8 hex>\n<payload bytes>\n
     R ...

   where <len> counts the payload bytes (not the trailing newline) and
   <crc> is the CRC-32 of the payload.  The payload itself is
   "<klen:8 hex> <key><value>".  All framing is fixed-width ASCII so a
   recovery scan needs no lookahead: a header is exactly 20 bytes, and
   a record occupies 20 + len + 1 bytes. *)

let magic = "RJNL1\n"
let header_len = 20 (* "R xxxxxxxx yyyyyyyy\n" *)

type t = {
  path : string;
  mutable oc : out_channel;
  chaos : (unit -> bool) option;
}

type recovery = {
  entries : (string * string) list;
  valid : int;
  dropped_bytes : int;
}

exception Injected_fault of string

let m_recovered = Obs.Metrics.once (fun () -> Obs.Metrics.counter "journal.recovered")
let m_truncated = Obs.Metrics.once (fun () -> Obs.Metrics.counter "journal.truncated.bytes")
let m_appends = Obs.Metrics.once (fun () -> Obs.Metrics.counter "journal.appends")

let split_payload p =
  (* "<klen:8 hex> <key><value>" *)
  if String.length p < 9 || p.[8] <> ' ' then None
  else
    match int_of_string_opt ("0x" ^ String.sub p 0 8) with
    | Some klen when klen >= 0 && 9 + klen <= String.length p ->
        Some (String.sub p 9 klen, String.sub p (9 + klen) (String.length p - 9 - klen))
    | Some _ | None -> None

type framed = { f_key : string; bytes : string }

let put_hex8 b pos n =
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i) "0123456789abcdef".[(n lsr (4 * (7 - i))) land 0xF]
  done

(* One record, framed once: the payload's CRC runs over its three parts
   in turn, and header, payload and newline are written into one
   buffer of the record's exact size. *)
let frame ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let plen = 9 + klen + vlen in
  let b = Bytes.create (header_len + plen + 1) in
  Bytes.set b 0 'R';
  Bytes.set b 1 ' ';
  put_hex8 b 2 plen;
  Bytes.set b 10 ' ';
  Bytes.set b 19 '\n';
  let body = header_len in
  put_hex8 b body klen;
  Bytes.set b (body + 8) ' ';
  Bytes.blit_string key 0 b (body + 9) klen;
  Bytes.blit_string value 0 b (body + 9 + klen) vlen;
  Bytes.set b (body + plen) '\n';
  let crc = Checksum.Crc32.digest (Bytes.sub_string b body 9) in
  let crc = Checksum.Crc32.digest ~crc:(Checksum.Crc32.digest ~crc key) value in
  Bytes.blit_string (Checksum.Crc32.to_hex crc) 0 b 11 8;
  { f_key = key; bytes = Bytes.unsafe_to_string b }

(* Scan [s] (the whole file) and return the recovery plus the byte
   offset where the valid prefix ends. *)
let scan s =
  let n = String.length s in
  if n < String.length magic || String.sub s 0 (String.length magic) <> magic
  then ({ entries = []; valid = 0; dropped_bytes = n }, 0)
  else begin
    let pos = ref (String.length magic) in
    let entries = ref [] in
    let valid = ref 0 in
    let ok = ref true in
    while !ok && !pos < n do
      let start = !pos in
      let bad () =
        ok := false;
        pos := start
      in
      if start + header_len > n then bad ()
      else if
        s.[start] <> 'R' || s.[start + 1] <> ' '
        || s.[start + 10] <> ' '
        || s.[start + header_len - 1] <> '\n'
      then bad ()
      else
        match
          ( int_of_string_opt ("0x" ^ String.sub s (start + 2) 8),
            Checksum.Crc32.of_hex (String.sub s (start + 11) 8) )
        with
        | Some len, Some crc when len >= 0 ->
            let body = start + header_len in
            if body + len + 1 > n then bad ()
            else if s.[body + len] <> '\n' then bad ()
            else if Checksum.Crc32.digest_sub s ~pos:body ~len <> crc then
              bad ()
            else begin
              match split_payload (String.sub s body len) with
              | Some (key, value) ->
                  entries := (key, value) :: !entries;
                  incr valid;
                  pos := body + len + 1
              | None -> bad ()
            end
        | _ -> bad ()
    done;
    ( {
        entries = List.rev !entries;
        valid = !valid;
        dropped_bytes = n - !pos;
      },
      !pos )
  end

let read_file path =
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end

let recover_file path = fst (scan (read_file path))

let open_ ?chaos path =
  let s = read_file path in
  let rec_, keep = scan s in
  Obs.Metrics.add (m_recovered ()) rec_.valid;
  Obs.Metrics.add (m_truncated ()) rec_.dropped_bytes;
  (* Rewrite the valid prefix (or a fresh header) and reopen in append
     position: the torn tail is physically gone, so a later recovery
     cannot trip over it. *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_binary ] 0o644 path in
  (try
     if s = "" || keep = 0 then begin
       seek_out oc 0;
       output_string oc magic
     end
     else seek_out oc keep
   with e ->
     close_out_noerr oc;
     raise e);
  (* seek_out positions the write pointer but does not shrink the file;
     flush then truncate so stale tail bytes cannot survive. *)
  flush oc;
  (try Unix.truncate path (pos_out oc) with Unix.Unix_error _ -> ());
  ({ path; oc; chaos }, rec_)

let append_framed t r =
  (match t.chaos with
  | Some fire when fire () ->
      (* Tear the record: header plus half the payload, flushed with
         whatever the channel already buffered, then fail — what a
         crash inside the append leaves behind. *)
      output_substring t.oc r.bytes 0
        (header_len + ((String.length r.bytes - header_len) / 2));
      flush t.oc;
      raise (Injected_fault (Printf.sprintf "journal append of %S torn" r.f_key))
  | _ -> ());
  output_string t.oc r.bytes;
  Obs.Metrics.incr (m_appends ())

let append t ~key ~value = append_framed t (frame ~key ~value)
let flush t = Stdlib.flush t.oc

let checkpoint_framed t records =
  (* Last-wins dedup, first-seen key order. *)
  let latest = Hashtbl.create (List.length records) in
  List.iter (fun r -> Hashtbl.replace latest r.f_key r) records;
  let compact =
    List.filter_map
      (fun r ->
        match Hashtbl.find_opt latest r.f_key with
        | Some last ->
            Hashtbl.remove latest r.f_key;
            Some last
        | None -> None)
      records
  in
  let tmp = t.path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (* [close_out] flushes and reports a failed final write (ENOSPC):
     then the rename must not happen, or a truncated file would replace
     the journal. *)
  (try
     output_string oc magic;
     List.iter (fun r -> output_string oc r.bytes) compact;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out_noerr t.oc;
  Sys.rename tmp t.path;
  t.oc <- open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path

let checkpoint t entries =
  checkpoint_framed t (List.map (fun (key, value) -> frame ~key ~value) entries)

let path t = t.path
let close t = close_out_noerr t.oc
