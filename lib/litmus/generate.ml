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

(* A program's canonical form is its smallest rendering over thread
   orders after first-occurrence renaming: locations l0, l1, … in scan
   order over the reordered threads, then the init-only ones in sorted
   original order; registers r0, r1, … per thread.  The rendering is a
   bespoke total serializer, not the pretty-printer, so it is stable
   against formatting changes; the program name is metadata, not shape,
   and is left out.  Registers are thread-local, so an order changes a
   thread's rendering only through its location names: each thread is
   rendered once, as a template with its locations cut out (DESIGN.md,
   "Generated corpora" argues why that is exact; test/canonical_reference.ml
   keeps the rename-and-serialize-per-order form the templates must
   equal). *)

let small_names c = Array.init 16 (Printf.sprintf "%c%d" c)
let loc_names = small_names 'l'
let reg_names = small_names 'r'
let small_ints = Array.init 16 string_of_int
let nth_name names k = if k < 16 then names.(k) else Printf.sprintf "%c%d" names.(0).[0] k
let int_text n = if n >= 0 && n < 16 then small_ints.(n) else string_of_int n

(* A first-occurrence renamer: the k-th distinct name it is given maps
   to [name k]. *)
let renamer name =
  let seen = ref [] in
  fun x ->
    try List.assoc x !seen
    with Not_found ->
      let y = name (List.length !seen) in
      seen := (x, y) :: !seen;
      y

(* [f] over an instruction's registers in scan order: value expressions,
   right operand first (the order the first implementation inherited
   from OCaml evaluating constructor arguments right to left), then the
   destination.  Class names depend on this order: keep it. *)
let rec scan_exp f : Ast.exp -> unit = function
  | Int _ -> ()
  | Reg r -> f r
  | Add (x, y) | Sub (x, y) | Mul (x, y) | Xor (x, y) | Eq (x, y) | Ne (x, y) ->
      scan_exp f y;
      scan_exp f x

let rec scan_regs f : Ast.instr -> unit = function
  | Load { reg; _ } -> f reg
  | Store { value; _ } -> scan_exp f value
  | Rmw { reg; op; _ } ->
      (match op with
      | Cas { expect; desired } -> scan_exp f expect; scan_exp f desired
      | Fetch_add e | Exchange e -> scan_exp f e);
      Option.iter f reg
  | Fence _ -> ()
  | Assign (r, e) -> scan_exp f e; f r
  | If { cond; then_; else_ } -> scan_exp f cond; List.iter (scan_regs f) (then_ @ else_)

let thread_regs (t : Ast.thread) =
  let reg = renamer (nth_name reg_names) in
  List.iter (scan_regs (fun r -> ignore (reg r))) t.code;
  reg

(* [p] with its threads in the order [threads], renamed. *)
let rename (p : Ast.prog) threads =
  let loc = renamer (nth_name loc_names) in
  let rename_thread tid (t : Ast.thread) =
    let reg = thread_regs t in
    let rec exp : Ast.exp -> Ast.exp = function
      | Int n -> Int n
      | Reg r -> Reg (reg r)
      | Add (x, y) -> Add (exp x, exp y)
      | Sub (x, y) -> Sub (exp x, exp y)
      | Mul (x, y) -> Mul (exp x, exp y)
      | Xor (x, y) -> Xor (exp x, exp y)
      | Eq (x, y) -> Eq (exp x, exp y)
      | Ne (x, y) -> Ne (exp x, exp y)
    in
    let rec instr : Ast.instr -> Ast.instr = function
      | Load l -> Load { l with reg = reg l.reg; loc = loc l.loc }
      | Store s -> Store { s with loc = loc s.loc; value = exp s.value }
      | Rmw c ->
          let op : Ast.rmw_op =
            match c.op with
            | Cas { expect; desired } -> Cas { expect = exp expect; desired = exp desired }
            | Fetch_add e -> Fetch_add (exp e)
            | Exchange e -> Exchange (exp e)
          in
          Rmw { c with reg = Option.map reg c.reg; loc = loc c.loc; op }
      | Fence f -> Fence f
      | Assign (r, e) -> Assign (reg r, exp e)
      | If { cond; then_; else_ } ->
          let then_ = List.map instr then_ in
          If { cond = exp cond; then_; else_ = List.map instr else_ }
    in
    { Ast.tid; code = List.map instr t.code }
  in
  let threads = List.mapi rename_thread threads in
  let init = List.sort compare (List.map (fun (l, v) -> (loc l, v)) (List.sort compare p.init)) in
  { Ast.name = p.name; init; threads }

(* A thread's rendering, "|" then its instructions with registers
   renamed, and its locations cut out: location [slots.(k)] goes at
   [cuts.(k)] of [text]. *)
type template = { text : string; cuts : int array; slots : int array }

let template b slot (t : Ast.thread) =
  Buffer.clear b;
  let reg = thread_regs t and cuts = ref [] and slots = ref [] in
  let add = Buffer.add_string b in
  let loc l = add ":"; cuts := Buffer.length b :: !cuts; slots := slot l :: !slots; add ":" in
  let rec exp : Ast.exp -> unit = function
    | Int n -> add (int_text n)
    | Reg r -> add (reg r)
    | Add (x, y) -> bin "+" x y
    | Sub (x, y) -> bin "-" x y
    | Mul (x, y) -> bin "*" x y
    | Xor (x, y) -> bin "^" x y
    | Eq (x, y) -> bin "==" x y
    | Ne (x, y) -> bin "!=" x y
  and bin op x y = add "("; exp x; add op; exp y; add ")" in
  let rec instr (i : Ast.instr) =
    (match i with
    | Load { reg = r; loc = l; ord } -> add "ld"; add (Ast.read_ann ord); loc l; add (reg r)
    | Store { loc = l; value; ord } -> add "st"; add (Ast.write_ann ord); loc l; exp value
    | Rmw { reg = r; loc = l; op; kind } -> (
        add (Ast.rmw_name op); add "."; add (Ast.rmw_kind_name kind); loc l;
        add (match r with Some r -> reg r | None -> "_"); add ":";
        match op with
        | Cas { expect; desired } -> exp expect; add ":"; exp desired
        | Fetch_add e | Exchange e -> exp e)
    | Fence f -> add "f:"; add (E.fence_name f)
    | Assign (r, e) -> add (reg r); add ":="; exp e
    | If { cond; then_; else_ } ->
        add "if:"; exp cond; add "{"; List.iter instr then_;
        add "}{"; List.iter instr else_; add "}");
    add ";"
  in
  add "|";
  List.iter instr t.code;
  let arr l = Array.of_list (List.rev l) in
  { text = Buffer.contents b; cuts = arr !cuts; slots = arr !slots }

(* The canonical string and the thread order that renders it: the first
   smallest rendering, over the orders in lexicographic order.  A
   depth-first search places one thread at a time, naming its locations
   and copying its template into a reused buffer.  When every order
   renders the same init, a prefix that already exceeds the best's is cut
   with every order that shares it, since the rest cannot make it
   smaller. *)
let canonical_order (p : Ast.prog) =
  let threads = Array.of_list p.threads in
  let n = Array.length threads and nlocs = ref 0 in
  let slot = renamer (fun k -> nlocs := k + 1; k) in
  let tmpls = Array.map (template (Buffer.create 64) slot) threads in
  (* Sorted by original name, then value: each location's entries are
     contiguous and in value order. *)
  let init = List.sort compare p.init in
  let init_slots = List.map (fun (l, _) -> slot l) init in
  let nlocs = !nlocs in
  let init_vals = Array.make nlocs [] in
  List.iter2
    (fun s (_, v) -> init_vals.(s) <- int_text v :: init_vals.(s))
    (List.rev init_slots) (List.rev init);
  (* Every order renders the same init when every location has the same
     entries (all of one value, say). *)
  let same_init = Array.for_all (fun vs -> vs = init_vals.(0)) init_vals in
  (* Canonical indices in the string order of their names (l10 sorts
     before l2). *)
  let by_name = Array.init nlocs Fun.id in
  if nlocs > 10 then
    Array.sort (fun a b -> String.compare (nth_name loc_names a) (nth_name loc_names b)) by_name;
  (* [map.(slot)] is the location's canonical index, [inv] the other way. *)
  let map = Array.make nlocs (-1) and inv = Array.make nlocs 0 and next = ref 0 in
  let name s = if map.(s) < 0 then (map.(s) <- !next; inv.(!next) <- s; incr next) in
  let unname from = Array.iteri (fun s k -> if k >= from then map.(s) <- -1) map; next := from in
  (* [cur] holds the placed threads' rendering; while [tied], it equals
     the best's from [init_len] on. *)
  let cur = Buffer.create 128 and best = ref "" and init_len = ref 0 and tied = ref false in
  let best_order = ref [] and found = ref false in
  let put s off k =
    if !tied then begin
      let b = !best and at = !init_len + Buffer.length cur and i = ref 0 in
      let m = if at + k <= String.length b then k else String.length b - at in
      while !i < m && s.[off + !i] = b.[at + !i] do incr i done;
      if !i < m then (if s.[off + !i] > b.[at + !i] then raise_notrace Exit; tied := false)
      else if m < k then raise_notrace Exit
    end;
    Buffer.add_substring cur s off k
  in
  let place i =
    let t = tmpls.(i) and pos = ref 0 in
    for k = 0 to Array.length t.cuts - 1 do
      put t.text !pos (t.cuts.(k) - !pos);
      name t.slots.(k);
      let l = nth_name loc_names map.(t.slots.(k)) in
      put l 0 (String.length l);
      pos := t.cuts.(k)
    done;
    put t.text !pos (String.length t.text - !pos)
  in
  let rec extend order depth =
    if depth = n then begin
      let from = !next and b = Buffer.create 64 in
      List.iter name init_slots;
      let add = Buffer.add_string b in
      let entries k = List.iter (fun v -> add (nth_name loc_names k); add "="; add v; add ",") in
      Array.iter (fun k -> entries k init_vals.(inv.(k))) by_name;
      init_len := Buffer.length b;
      Buffer.add_buffer b cur;
      let s = Buffer.contents b in
      if (not !found) || s < !best then (best := s; best_order := List.rev order; found := true);
      unname from
    end
    else
      for i = 0 to n - 1 do
        if not (List.mem i order) then begin
          let len = Buffer.length cur and from = !next and was_tied = !tied and was = !best in
          (try place i; extend (i :: order) (depth + 1) with Exit -> ());
          unname from;
          Buffer.truncate cur len;
          (* A new best extends this prefix. *)
          tied := if !best != was then same_init else was_tied
        end
      done
  in
  extend [] 0;
  (!best, List.map (fun i -> threads.(i)) !best_order)

let canonical p = rename p (snd (canonical_order p))
let canonical_string p = fst (canonical_order p)

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
      let s, threads = canonical_order p in
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
          let rep = { (rename p threads) with Ast.name } in
          reps := (k, { cls_name = name; cls_rep = rep; cls_hash = hash; cls_count = 1 }) :: !reps)
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
