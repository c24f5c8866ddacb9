type temp = int

let nb_globals = 18
let guest_reg i = i
let cmp_a = 16
let cmp_b = 17
let first_local = 32

type binop = Add | Sub | And | Or | Xor | Shl | Shr | Mul
type cond = Eq | Ne | Lt | Le | Gt | Ge | Ltu | Leu | Gtu | Geu

type origin = { opc : int64; rule : string }

let no_origin = { opc = -1L; rule = "none" }

type t =
  | Movi of temp * int64
  | Mov of temp * temp
  | Binop of binop * temp * temp * temp
  | Binopi of binop * temp * temp * int64
  | Ld of temp * temp * int64
  | St of temp * temp * int64
  | Mb of Axiom.Event.fence * int64 * string
  | Setcond of cond * temp * temp * temp
  | Brcond of cond * temp * temp * int
  | Set_label of int
  | Br of int
  | Rmw of { op : Mapping.Schemes.rmw_op; old : temp; addr : temp; expect : temp; src : temp }
  | Call of string * temp list * temp option
  | Host_call of { func : string; args : temp list; ret : temp option }
  | Goto_tb of int64
  | Goto_ptr of temp
  | Exit_halt
  | Trap of string * string

let mb ?(origin = no_origin) f = Mb (f, origin.opc, origin.rule)

let no_temp = -1

let write = function
  | Movi (d, _) | Mov (d, _) | Binop (_, d, _, _) | Binopi (_, d, _, _)
  | Ld (d, _, _)
  | Setcond (_, d, _, _) ->
      d
  | Rmw { old; _ } -> old
  | Call (_, _, Some r) | Host_call { ret = Some r; _ } -> r
  | Call (_, _, None)
  | Host_call { ret = None; _ }
  | St _ | Mb _ | Brcond _ | Set_label _ | Br _ | Goto_tb _ | Goto_ptr _
  | Exit_halt | Trap _ ->
      no_temp

let nreads = function
  | Movi _ | Mb _ | Set_label _ | Br _ | Goto_tb _ | Exit_halt | Trap _ -> 0
  | Mov _ | Binopi _ | Ld _ | Goto_ptr _ -> 1
  | Binop _ | Setcond _ | Brcond _ | St _ | Rmw { op = `Xadd | `Xchg; _ } -> 2
  | Rmw { op = `Cas; _ } -> 3
  | Call (_, args, _) | Host_call { args; _ } -> List.length args

let read op k =
  match op with
  | Mov (_, a) | Binopi (_, _, a, _) | Ld (_, a, _) | Goto_ptr a -> a
  | Binop (_, _, a, b) | Setcond (_, _, a, b) | Brcond (_, a, b, _) | St (a, b, _) ->
      if k = 0 then a else b
  | Rmw { op; addr; expect; src; _ } -> (
      match (k, op) with 0, _ -> addr | 1, `Cas -> expect | _ -> src)
  | Call (_, args, _) | Host_call { args; _ } -> List.nth args k
  | Movi _ | Mb _ | Set_label _ | Br _ | Goto_tb _ | Exit_halt | Trap _ -> no_temp

let temp_bound ops =
  let bound = ref nb_globals in
  for i = 0 to Array.length ops - 1 do
    (* k = -1 is the write, then the reads *)
    for k = -1 to nreads ops.(i) - 1 do
      let t = if k < 0 then write ops.(i) else read ops.(i) k in
      if t >= !bound then bound := t + 1
    done
  done;
  !bound

let is_pure = function
  | Movi _ | Mov _ | Binop _ | Binopi _ | Setcond _ -> true
  | Ld _ | St _ | Mb _ | Brcond _ | Set_label _ | Br _ | Rmw _
  | Call _ | Host_call _ | Goto_tb _ | Goto_ptr _ | Exit_halt | Trap _ ->
      false

let eval_binop op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Mul -> Int64.mul a b

let eval_cond c a b =
  match c with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0
  | Ltu -> Int64.unsigned_compare a b < 0
  | Leu -> Int64.unsigned_compare a b <= 0
  | Gtu -> Int64.unsigned_compare a b > 0
  | Geu -> Int64.unsigned_compare a b >= 0

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Mul -> "mul"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Ltu -> "ltu"
  | Leu -> "leu"
  | Gtu -> "gtu"
  | Geu -> "geu"

let pp_temp ppf t =
  if t < 16 then Fmt.pf ppf "g%d" t
  else if t = cmp_a then Fmt.string ppf "cmpA"
  else if t = cmp_b then Fmt.string ppf "cmpB"
  else Fmt.pf ppf "t%d" t

let pp ppf = function
  | Movi (d, i) -> Fmt.pf ppf "movi %a, %Ld" pp_temp d i
  | Mov (d, s) -> Fmt.pf ppf "mov %a, %a" pp_temp d pp_temp s
  | Binop (op, d, a, b) ->
      Fmt.pf ppf "%s %a, %a, %a" (binop_name op) pp_temp d pp_temp a pp_temp b
  | Binopi (op, d, a, i) ->
      Fmt.pf ppf "%si %a, %a, %Ld" (binop_name op) pp_temp d pp_temp a i
  | Ld (d, b, off) -> Fmt.pf ppf "ld %a, [%a%+Ld]" pp_temp d pp_temp b off
  | St (s, b, off) -> Fmt.pf ppf "st [%a%+Ld], %a" pp_temp b off pp_temp s
  | Mb (f, _, _) -> Fmt.pf ppf "mb %a" Axiom.Event.pp_fence f
  | Setcond (c, d, a, b) ->
      Fmt.pf ppf "setcond.%s %a, %a, %a" (cond_name c) pp_temp d pp_temp a
        pp_temp b
  | Brcond (c, a, b, l) ->
      Fmt.pf ppf "brcond.%s %a, %a, L%d" (cond_name c) pp_temp a pp_temp b l
  | Set_label l -> Fmt.pf ppf "L%d:" l
  | Br l -> Fmt.pf ppf "br L%d" l
  | Rmw { op = `Cas; old; addr; expect; src } ->
      Fmt.pf ppf "cas %a, [%a], %a, %a" pp_temp old pp_temp addr pp_temp expect
        pp_temp src
  | Rmw { op = (`Xadd | `Xchg) as op; old; addr; src; _ } ->
      Fmt.pf ppf "%s %a, [%a], %a"
        (match op with `Xadd -> "xadd" | `Xchg -> "xchg")
        pp_temp old pp_temp addr pp_temp src
  | Call (f, args, ret) ->
      Fmt.pf ppf "call %s(%a)%a" f (Fmt.list ~sep:Fmt.comma pp_temp) args
        (Fmt.option (fun ppf r -> Fmt.pf ppf " -> %a" pp_temp r))
        ret
  | Host_call { func; args; ret } ->
      Fmt.pf ppf "host_call %s(%a)%a" func
        (Fmt.list ~sep:Fmt.comma pp_temp)
        args
        (Fmt.option (fun ppf r -> Fmt.pf ppf " -> %a" pp_temp r))
        ret
  | Goto_tb pc -> Fmt.pf ppf "goto_tb 0x%Lx" pc
  | Goto_ptr t -> Fmt.pf ppf "goto_ptr %a" pp_temp t
  | Exit_halt -> Fmt.string ppf "exit_halt"
  | Trap (kind, context) -> Fmt.pf ppf "trap.%s %S" kind context
