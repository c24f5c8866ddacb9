type item =
  | Label of string
  | Ins of Insn.t
  | Jmp_lbl of string
  | Jcc_lbl of Insn.cc * string
  | Call_lbl of string
  | Mov_lbl of Reg.t * string

exception Undefined_label of string
exception Duplicate_label of string

type assembled = {
  org : int64;
  code : string;
  symbols : (string * int64) list;
}

let item_length = function
  | Label _ -> 0
  | Ins i -> Encode.length i
  | Jmp_lbl _ -> Encode.length (Insn.Jmp 0L)
  | Jcc_lbl (cc, _) -> Encode.length (Insn.Jcc (cc, 0L))
  | Call_lbl _ -> Encode.length (Insn.Call 0L)
  | Mov_lbl (r, _) -> Encode.length (Insn.Mov_ri (r, 0L))

let assemble ?(org = 0x1000L) items =
  (* Pass 1: label addresses. *)
  let symbols = Hashtbl.create 16 in
  let _ =
    List.fold_left
      (fun addr item ->
        (match item with
        | Label l ->
            if Hashtbl.mem symbols l then raise (Duplicate_label l);
            Hashtbl.add symbols l addr
        | Ins _ | Jmp_lbl _ | Jcc_lbl _ | Call_lbl _ | Mov_lbl _ -> ());
        Int64.add addr (Int64.of_int (item_length item)))
      org items
  in
  let resolve l =
    match Hashtbl.find_opt symbols l with
    | Some a -> a
    | None -> raise (Undefined_label l)
  in
  (* Pass 2: encode. *)
  let buf = Buffer.create 256 in
  let _ =
    List.fold_left
      (fun addr item ->
        let insn =
          match item with
          | Label _ -> None
          | Ins i -> Some i
          | Jmp_lbl l -> Some (Insn.Jmp (resolve l))
          | Jcc_lbl (cc, l) -> Some (Insn.Jcc (cc, resolve l))
          | Call_lbl l -> Some (Insn.Call (resolve l))
          | Mov_lbl (r, l) -> Some (Insn.Mov_ri (r, resolve l))
        in
        match insn with
        | None -> addr
        | Some i ->
            Encode.emit buf ~pc:addr i;
            Int64.add addr (Int64.of_int (Encode.length i)))
      org items
  in
  {
    org;
    code = Buffer.contents buf;
    symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [];
  }

let symbol a l =
  match List.assoc_opt l a.symbols with
  | Some addr -> addr
  | None -> raise (Undefined_label l)
