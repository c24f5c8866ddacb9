type exp =
  | Int of int
  | Reg of string
  | Add of exp * exp
  | Sub of exp * exp
  | Mul of exp * exp
  | Xor of exp * exp
  | Eq of exp * exp
  | Ne of exp * exp

type rmw_impl = Amo | Lxsx

type rmw_kind =
  | Rmw_x86
  | Rmw_tcg
  | Rmw_arm of { impl : rmw_impl; acq : bool; rel : bool }

type rmw_op = Cas of { expect : exp; desired : exp } | Fetch_add of exp | Exchange of exp

type instr =
  | Load of { reg : string; loc : string; ord : Axiom.Event.read_ord }
  | Store of { loc : string; value : exp; ord : Axiom.Event.write_ord }
  | Rmw of { reg : string option; loc : string; op : rmw_op; kind : rmw_kind }
  | Fence of Axiom.Event.fence
  | Assign of string * exp
  | If of { cond : exp; then_ : instr list; else_ : instr list }

type thread = { tid : int; code : instr list }
type prog = { name : string; init : (string * int) list; threads : thread list }

type cond =
  | Reg_is of int * string * int
  | Loc_is of string * int
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | True

type expectation = Allowed of cond | Forbidden of cond
type test = { prog : prog; expect : expectation }

let rmw_name = function Cas _ -> "cas" | Fetch_add _ -> "xadd" | Exchange _ -> "xchg"

let rec instr_locs acc = function
  | Load { loc; _ } | Store { loc; _ } | Rmw { loc; _ } -> loc :: acc
  | Fence _ | Assign _ -> acc
  | If { then_; else_; _ } ->
      let acc = List.fold_left instr_locs acc then_ in
      List.fold_left instr_locs acc else_

let locations p =
  let from_init = List.map fst p.init in
  let from_code =
    List.concat_map (fun t -> List.fold_left instr_locs [] t.code) p.threads
  in
  List.sort_uniq String.compare (from_init @ from_code)

let rec exp_regs acc = function
  | Int _ -> acc
  | Reg r -> r :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Xor (a, b) | Eq (a, b) | Ne (a, b) ->
      exp_regs (exp_regs acc a) b

let registers t =
  let rec go acc = function
    | Load { reg; _ } -> if List.mem reg acc then acc else reg :: acc
    | Rmw { reg = Some reg; _ } | Assign (reg, _) ->
        if List.mem reg acc then acc else reg :: acc
    | Rmw { reg = None; _ } | Store _ | Fence _ -> acc
    | If { then_; else_; _ } ->
        let acc = List.fold_left go acc then_ in
        List.fold_left go acc else_
  in
  List.rev (List.fold_left go [] t.code)

let map_instrs f p =
  let rec go_instr i =
    match i with
    | If { cond; then_; else_ } ->
        f (If { cond; then_ = go_list then_; else_ = go_list else_ })
    | _ -> f i
  and go_list is = List.concat_map go_instr is in
  { p with threads = List.map (fun t -> { t with code = go_list t.code }) p.threads }

let rec pp_exp ppf = function
  | Int n -> Fmt.int ppf n
  | Reg r -> Fmt.string ppf r
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_exp a pp_exp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_exp a pp_exp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_exp a pp_exp b
  | Xor (a, b) -> Fmt.pf ppf "(%a ^ %a)" pp_exp a pp_exp b
  | Eq (a, b) -> Fmt.pf ppf "(%a == %a)" pp_exp a pp_exp b
  | Ne (a, b) -> Fmt.pf ppf "(%a != %a)" pp_exp a pp_exp b

let read_ann : Axiom.Event.read_ord -> string = function
  | R_plain -> ""
  | R_acq -> ".acq"
  | R_acq_pc -> ".q"
  | R_sc -> ".sc"

let write_ann : Axiom.Event.write_ord -> string = function
  | W_plain -> ""
  | W_rel -> ".rel"
  | W_sc -> ".sc"

let rmw_kind_name = function
  | Rmw_x86 -> "x86"
  | Rmw_tcg -> "tcg"
  | Rmw_arm { impl; acq; rel } ->
      Printf.sprintf "%s%s%s"
        (match impl with Amo -> "amo" | Lxsx -> "lxsx")
        (if acq then ".a" else "")
        (if rel then ".l" else "")

let rec pp_instr ppf = function
  | Load { reg; loc; ord } -> Fmt.pf ppf "ld%s %s, %s" (read_ann ord) reg loc
  | Store { loc; value; ord } ->
      Fmt.pf ppf "st%s %s, %a" (write_ann ord) loc pp_exp value
  | Rmw { reg; loc; op; kind } -> (
      Fmt.pf ppf "%s.%s %s%s, " (rmw_name op) (rmw_kind_name kind)
        (match reg with Some r -> r ^ " <- " | None -> "")
        loc;
      match op with
      | Cas { expect; desired } -> Fmt.pf ppf "%a, %a" pp_exp expect pp_exp desired
      | Fetch_add e | Exchange e -> pp_exp ppf e)
  | Fence f -> Fmt.pf ppf "fence %a" Axiom.Event.pp_fence f
  | Assign (r, e) -> Fmt.pf ppf "%s := %a" r pp_exp e
  | If { cond; then_; else_ } ->
      Fmt.pf ppf "@[<v 2>if %a {@,%a@]@,}" pp_exp cond
        (Fmt.list ~sep:Fmt.cut pp_instr)
        then_;
      if else_ <> [] then
        Fmt.pf ppf "@[<v 2> else {@,%a@]@,}"
          (Fmt.list ~sep:Fmt.cut pp_instr)
          else_

let pp_prog ppf p =
  let pp_init ppf (l, v) = Fmt.pf ppf "%s=%d" l v in
  Fmt.pf ppf "@[<v>test %s@,init %a@," p.name
    (Fmt.list ~sep:Fmt.sp pp_init)
    p.init;
  List.iter
    (fun t ->
      Fmt.pf ppf "@[<v 2>thread P%d {@,%a@]@,}@," t.tid
        (Fmt.list ~sep:Fmt.cut pp_instr)
        t.code)
    p.threads;
  Fmt.pf ppf "@]"

let rec pp_cond ppf = function
  | Reg_is (tid, r, v) -> Fmt.pf ppf "%d:%s=%d" tid r v
  | Loc_is (l, v) -> Fmt.pf ppf "%s=%d" l v
  | And (a, b) -> Fmt.pf ppf "(%a /\\ %a)" pp_cond a pp_cond b
  | Or (a, b) -> Fmt.pf ppf "(%a \\/ %a)" pp_cond a pp_cond b
  | Not c -> Fmt.pf ppf "~(%a)" pp_cond c
  | True -> Fmt.string ppf "true"

let pp_expectation ppf = function
  | Allowed c -> Fmt.pf ppf "allowed %a" pp_cond c
  | Forbidden c -> Fmt.pf ppf "forbidden %a" pp_cond c
