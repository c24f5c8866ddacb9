module E = Axiom.Event

type tstate = {
  code : Ast.instr list;
  env : (string * int) list;  (* sorted by register name *)
  buf : (string * int) list;  (* store buffer, oldest first *)
}

type state = { threads : tstate list; mem : (string * int) list }

let set_assoc k v l = List.sort compare ((k, v) :: List.remove_assoc k l)

let rec eval env (e : Ast.exp) =
  match e with
  | Ast.Int n -> n
  | Ast.Reg r -> Option.value ~default:0 (List.assoc_opt r env)
  | Ast.Add (a, b) -> eval env a + eval env b
  | Ast.Sub (a, b) -> eval env a - eval env b
  | Ast.Mul (a, b) -> eval env a * eval env b
  | Ast.Xor (a, b) -> eval env a lxor eval env b
  | Ast.Eq (a, b) -> if eval env a = eval env b then 1 else 0
  | Ast.Ne (a, b) -> if eval env a <> eval env b then 1 else 0

let read_mem mem loc = Option.value ~default:0 (List.assoc_opt loc mem)

(* Newest buffered store to [loc], if any. *)
let read_buffer buf loc =
  List.fold_left
    (fun acc (l, v) -> if l = loc then Some v else acc)
    None buf

(* Successor states of one thread taking one step (plus, separately,
   draining one buffer entry). *)
let thread_steps s tid t =
  let with_thread t' threads =
    List.mapi (fun i x -> if i = tid then t' else x) threads
  in
  let drain =
    match t.buf with
    | (loc, v) :: rest ->
        [
          {
            threads = with_thread { t with buf = rest } s.threads;
            mem = set_assoc loc v s.mem;
          };
        ]
    | [] -> []
  in
  let exec =
    match t.code with
    | [] -> []
    | i :: rest -> (
        let continue ?(env = t.env) ?(buf = t.buf) ?(mem = s.mem) code =
          [ { threads = with_thread { code; env; buf } s.threads; mem } ]
        in
        match i with
        | Ast.Assign (r, e) -> continue ~env:(set_assoc r (eval t.env e) t.env) rest
        | Ast.Load { reg; loc; _ } ->
            let v =
              match read_buffer t.buf loc with
              | Some v -> v
              | None -> read_mem s.mem loc
            in
            continue ~env:(set_assoc reg v t.env) rest
        | Ast.Store { loc; value; _ } ->
            continue ~buf:(t.buf @ [ (loc, eval t.env value) ]) rest
        | Ast.Fence _ ->
            (* Only full fences appear in x86 programs; a fence may only
               retire once the buffer is empty. *)
            if t.buf = [] then continue rest else []
        | Ast.Rmw { reg; loc; op; _ } ->
            if t.buf <> [] then []
            else
              let old = read_mem s.mem loc in
              let env =
                match reg with
                | Some r -> set_assoc r old t.env
                | None -> t.env
              in
              let mem =
                match op with
                | Ast.Cas { expect; desired } ->
                    if old = eval t.env expect then set_assoc loc (eval t.env desired) s.mem
                    else s.mem
                | Ast.Fetch_add e -> set_assoc loc (old + eval t.env e) s.mem
                | Ast.Exchange e -> set_assoc loc (eval t.env e) s.mem
              in
              continue ~env ~mem rest
        | Ast.If { cond; then_; else_ } ->
            continue ((if eval t.env cond <> 0 then then_ else else_) @ rest))
  in
  drain @ exec

let steps s =
  List.concat (List.mapi (fun tid t -> thread_steps s tid t) s.threads)

let initial (p : Ast.prog) =
  {
    threads =
      List.map (fun (t : Ast.thread) -> { code = t.code; env = []; buf = [] }) p.threads;
    mem =
      List.sort compare
        (List.map (fun l -> (l, Option.value ~default:0 (List.assoc_opt l p.init)))
           (Ast.locations p));
  }

let final s = List.for_all (fun t -> t.code = [] && t.buf = []) s.threads

let explore p =
  let visited = Hashtbl.create 1024 in
  let finals = ref [] in
  let rec go s =
    if not (Hashtbl.mem visited s) then begin
      Hashtbl.replace visited s ();
      if final s then finals := s :: !finals;
      List.iter go (steps s)
    end
  in
  go (initial p);
  (!finals, Hashtbl.length visited)

let behaviour_of_state (p : Ast.prog) s =
  {
    Enumerate.mem = s.mem;
    regs =
      List.concat
        (List.map2
           (fun (t : Ast.thread) ts ->
             (* Report exactly the registers the enumerator reports:
                those written by the thread's code. *)
             List.filter_map
               (fun r ->
                 Option.map (fun v -> ((t.Ast.tid, r), v)) (List.assoc_opt r ts.env))
               (Ast.registers t))
           p.threads s.threads)
      |> List.sort compare;
  }

let behaviours p =
  let finals, _ = explore p in
  List.sort_uniq Enumerate.behaviour_compare
    (List.map (behaviour_of_state p) finals)

let explored_states p = snd (explore p)
