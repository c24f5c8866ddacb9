module E = Axiom.Event

type config = {
  max_threads : int;
  max_locs : int;
  max_instrs : int;
  max_reads : int;
  max_writes_per_loc : int;
  cas_weight : int;
  fence_weight : int;
}

let default_config =
  {
    max_threads = 3;
    max_locs = 3;
    max_instrs = 3;
    max_reads = 4;
    max_writes_per_loc = 2;
    cas_weight = 2;
    fence_weight = 2;
  }

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let all_locs = [ "x"; "y"; "z" ]

(* One raw instruction.  Registers are placeholders ("?") resolved by
   the per-thread numbering pass below, so the generator itself stays a
   plain QCheck combinator. *)
let gen_instr cfg locs : Ast.instr QCheck.Gen.t =
  let open QCheck.Gen in
  let loc = oneofl locs in
  frequency
    [
      ( 3,
        loc >>= fun l ->
        int_range 1 2 >|= fun v ->
        Ast.Store { loc = l; value = Ast.Int v; ord = E.W_plain } );
      ( 3,
        loc >|= fun l -> Ast.Load { reg = "?"; loc = l; ord = E.R_plain } );
      ( cfg.cas_weight,
        loc >>= fun l ->
        int_range 0 1 >>= fun e ->
        int_range 1 2 >|= fun d ->
        Ast.Rmw
          {
            reg = Some "?";
            loc = l;
            op = Ast.Cas { expect = Ast.Int e; desired = Ast.Int d };
            kind = Ast.Rmw_x86;
          } );
      (cfg.fence_weight, pure (Ast.Fence E.F_mfence));
    ]

let gen_thread cfg locs tid : Ast.thread QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 cfg.max_instrs >>= fun n ->
  list_repeat n (gen_instr cfg locs) >|= fun code -> { Ast.tid; code }

(* Enforce the enumeration budget: the candidate space is exponential
   in reads and in writes per location, so excess memory instructions
   are dropped (deterministically, in program order) rather than risk a
   generated program the enumerator cannot finish.  Placeholder
   registers are numbered r0, r1, … per thread in the same pass. *)
let sanitize cfg (p : Ast.prog) =
  let reads = ref 0 in
  let writes : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let write_budget l =
    let r =
      match Hashtbl.find_opt writes l with
      | Some r -> r
      | None ->
          let r = ref 0 in
          Hashtbl.add writes l r;
          r
    in
    if !r < cfg.max_writes_per_loc then begin
      incr r;
      true
    end
    else false
  in
  let threads =
    List.map
      (fun (t : Ast.thread) ->
        let nreg = ref 0 in
        let fresh () =
          let r = Printf.sprintf "r%d" !nreg in
          incr nreg;
          r
        in
        let code =
          List.filter_map
            (fun (i : Ast.instr) ->
              match i with
              | Ast.Load l ->
                  if !reads < cfg.max_reads then begin
                    incr reads;
                    Some (Ast.Load { l with reg = fresh () })
                  end
                  else None
              | Ast.Store s -> if write_budget s.loc then Some i else None
              | Ast.Rmw c ->
                  if !reads < cfg.max_reads && write_budget c.loc then begin
                    incr reads;
                    Some (Ast.Rmw { c with reg = Some (fresh ()) })
                  end
                  else None
              | Ast.Fence _ | Ast.Assign _ | Ast.If _ -> Some i)
            t.code
        in
        { t with code })
      p.threads
  in
  { p with threads }

let gen ?(config = default_config) : Ast.prog QCheck.Gen.t =
  let open QCheck.Gen in
  let cfg = config in
  int_range 2 (max 2 cfg.max_threads) >>= fun nthreads ->
  int_range 2 (max 2 (min cfg.max_locs (List.length all_locs))) >>= fun nlocs ->
  let locs = List.filteri (fun i _ -> i < nlocs) all_locs in
  let rec threads tid acc =
    if tid >= nthreads then pure (List.rev acc)
    else gen_thread cfg locs tid >>= fun t -> threads (tid + 1) (t :: acc)
  in
  threads 0 [] >|= fun threads ->
  sanitize cfg
    {
      Ast.name = "gen";
      init = List.map (fun l -> (l, 0)) locs;
      threads;
    }

let generate ?config ~seed n =
  let st = Random.State.make [| 0x52497354; seed |] in
  let g = gen ?config in
  List.init n (fun i ->
      let p = g st in
      { p with Ast.name = Printf.sprintf "gen-%04d" i })

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* A tiny total serializer — bespoke rather than the pretty-printer so
   the canonical string is stable against formatting changes.  The
   program name is deliberately excluded: it is metadata, not shape. *)
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

(* ------------------------------------------------------------------ *)
(* Corpus: dedup into shape classes                                    *)

type cls = {
  cls_name : string;
  cls_rep : Ast.prog;
  cls_hash : int32;
  cls_count : int;
}

type corpus = { seed : int; requested : int; classes : cls list }

let corpus ?config ~seed n =
  let progs = generate ?config ~seed n in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  let reps = ref [] in
  let nclasses = ref 0 in
  List.iter
    (fun p ->
      let rep, s = canonical_pair p in
      match Hashtbl.find_opt tbl s with
      | Some k -> incr (Hashtbl.find counts k)
      | None ->
          let k = !nclasses in
          incr nclasses;
          Hashtbl.add tbl s k;
          Hashtbl.add counts k (ref 1);
          let hash = Checksum.Crc32.digest s in
          let name =
            Printf.sprintf "gen-%04d-%s" k (Checksum.Crc32.to_hex hash)
          in
          reps := (k, { cls_name = name; cls_rep = { rep with Ast.name }; cls_hash = hash; cls_count = 1 }) :: !reps)
    progs;
  let classes =
    List.rev_map
      (fun (k, c) -> { c with cls_count = !(Hashtbl.find counts k) })
      !reps
  in
  { seed; requested = n; classes }

let dedup_ratio c =
  if c.requested = 0 then 0.
  else 1. -. (float_of_int (List.length c.classes) /. float_of_int c.requested)
