(* The canonical form as first written, kept as the reference the
   differential case in test_generate.ml compares {!Litmus.Generate}'s
   template renderer against: for every thread permutation, rename the
   whole program and serialise it again, keeping the first smallest
   string.  Slow (a fresh renaming and rendering per permutation) and
   obviously right. *)

module Ast = Litmus.Ast
module E = Axiom.Event

let ser_prog (p : Ast.prog) =
  let b = Buffer.create 128 in
  let rec ser_exp = function
    | Ast.Int n -> Buffer.add_string b (string_of_int n)
    | Ast.Reg r -> Buffer.add_string b r
    | Ast.Add (x, y) -> bin "+" x y
    | Ast.Sub (x, y) -> bin "-" x y
    | Ast.Mul (x, y) -> bin "*" x y
    | Ast.Xor (x, y) -> bin "^" x y
    | Ast.Eq (x, y) -> bin "==" x y
    | Ast.Ne (x, y) -> bin "!=" x y
  and bin op x y =
    Buffer.add_char b '(';
    ser_exp x;
    Buffer.add_string b op;
    ser_exp y;
    Buffer.add_char b ')'
  in
  let rec ser_instr (i : Ast.instr) =
    (match i with
    | Ast.Load { reg; loc; ord } ->
        Buffer.add_string b
          (Printf.sprintf "ld%s:%s:%s" (Ast.read_ann ord) loc reg)
    | Ast.Store { loc; value; ord } ->
        Buffer.add_string b (Printf.sprintf "st%s:%s:" (Ast.write_ann ord) loc);
        ser_exp value
    | Ast.Rmw { reg; loc; op; kind } -> (
        Buffer.add_string b
          (Printf.sprintf "%s.%s:%s:%s:" (Ast.rmw_name op) (Ast.rmw_kind_name kind) loc
             (Option.value ~default:"_" reg));
        match op with
        | Ast.Cas { expect; desired } ->
            ser_exp expect;
            Buffer.add_char b ':';
            ser_exp desired
        | Ast.Fetch_add e | Ast.Exchange e -> ser_exp e)
    | Ast.Fence f -> Buffer.add_string b ("f:" ^ Fmt.str "%a" E.pp_fence f)
    | Ast.Assign (r, e) ->
        Buffer.add_string b (r ^ ":=");
        ser_exp e
    | Ast.If { cond; then_; else_ } ->
        Buffer.add_string b "if:";
        ser_exp cond;
        Buffer.add_char b '{';
        List.iter ser_instr then_;
        Buffer.add_string b "}{";
        List.iter ser_instr else_;
        Buffer.add_char b '}');
    Buffer.add_char b ';'
  in
  List.iter
    (fun (l, v) -> Buffer.add_string b (Printf.sprintf "%s=%d," l v))
    p.init;
  List.iter
    (fun (t : Ast.thread) ->
      Buffer.add_char b '|';
      List.iter ser_instr t.code)
    p.threads;
  Buffer.contents b

(* Rename locations and registers to first-occurrence l0/l1/… and
   r0/r1/… for a given thread order.  Locations are shared (one map for
   the program, fed in thread-scan order); registers are thread-local.
   The scan order within an instruction is fixed (location, then value
   expressions, then the destination register) so the renaming is a
   deterministic function of the thread order alone. *)
let rename (p : Ast.prog) (threads : Ast.thread list) =
  let locs : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let nloc = ref 0 in
  let loc l =
    match Hashtbl.find_opt locs l with
    | Some l' -> l'
    | None ->
        let l' = Printf.sprintf "l%d" !nloc in
        incr nloc;
        Hashtbl.add locs l l';
        l'
  in
  let rename_thread tid (t : Ast.thread) =
    let regs : (string, string) Hashtbl.t = Hashtbl.create 4 in
    let nreg = ref 0 in
    let reg r =
      match Hashtbl.find_opt regs r with
      | Some r' -> r'
      | None ->
          let r' = Printf.sprintf "r%d" !nreg in
          incr nreg;
          Hashtbl.add regs r r';
          r'
    in
    let rec exp = function
      | Ast.Int n -> Ast.Int n
      | Ast.Reg r -> Ast.Reg (reg r)
      | Ast.Add (x, y) -> Ast.Add (exp x, exp y)
      | Ast.Sub (x, y) -> Ast.Sub (exp x, exp y)
      | Ast.Mul (x, y) -> Ast.Mul (exp x, exp y)
      | Ast.Xor (x, y) -> Ast.Xor (exp x, exp y)
      | Ast.Eq (x, y) -> Ast.Eq (exp x, exp y)
      | Ast.Ne (x, y) -> Ast.Ne (exp x, exp y)
    in
    let rec instr (i : Ast.instr) =
      match i with
      | Ast.Load { reg = r; loc = l; ord } ->
          let l = loc l in
          Ast.Load { reg = reg r; loc = l; ord }
      | Ast.Store { loc = l; value; ord } ->
          let l = loc l in
          Ast.Store { loc = l; value = exp value; ord }
      | Ast.Rmw { reg = r; loc = l; op; kind } ->
          let l = loc l in
          let op =
            match op with
            | Ast.Cas { expect; desired } ->
                let expect = exp expect in
                let desired = exp desired in
                Ast.Cas { expect; desired }
            | Ast.Fetch_add e -> Ast.Fetch_add (exp e)
            | Ast.Exchange e -> Ast.Exchange (exp e)
          in
          Ast.Rmw { reg = Option.map reg r; loc = l; op; kind }
      | Ast.Fence f -> Ast.Fence f
      | Ast.Assign (r, e) ->
          let e = exp e in
          Ast.Assign (reg r, e)
      | Ast.If { cond; then_; else_ } ->
          let cond = exp cond in
          let then_ = List.map instr then_ in
          let else_ = List.map instr else_ in
          Ast.If { cond; then_; else_ }
    in
    { Ast.tid; code = List.map instr t.code }
  in
  let threads = List.mapi rename_thread threads in
  (* Init entries for locations never touched by code keep a stable
     order (sorted by original name) after the code-driven ones. *)
  let init =
    List.map (fun (l, v) -> (loc l, v)) (List.sort compare p.init)
    |> List.sort compare
  in
  { Ast.name = p.name; init; threads }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun i ->
          let x = List.nth l i in
          let rest = List.filteri (fun j _ -> j <> i) l in
          List.map (fun p -> x :: p) (permutations rest))
        (List.init (List.length l) Fun.id)

let canonical_pair (p : Ast.prog) =
  let best =
    List.fold_left
      (fun best threads ->
        let q = rename p threads in
        let s = ser_prog q in
        match best with
        | Some (_, s') when String.compare s' s <= 0 -> best
        | _ -> Some (q, s))
      None
      (permutations p.threads)
  in
  match best with
  | Some (q, s) -> (q, s)
  | None -> (rename p [], ser_prog (rename p []))

let canonical p = fst (canonical_pair p)
let canonical_string p = snd (canonical_pair p)
