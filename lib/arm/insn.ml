type reg = int

let xzr = 31

type alu = Add | Sub | And | Orr | Eor | Lsl | Lsr | Mul
type fpop = Fadd | Fsub | Fmul | Fdiv | Fsqrt
type barrier = Full | Ld | St
type operand = R of reg | I of int64
type cc = Eq | Ne | Lt | Le | Gt | Ge | Lo | Ls | Hi | Hs

type t =
  | Movz of reg * int64
  | Mov of reg * reg
  | Alu of alu * reg * reg * operand
  | Ldr of reg * reg * int64
  | Str of reg * reg * int64
  | Ldar of reg * reg
  | Ldapr of reg * reg
  | Stlr of reg * reg
  | Ldxr of reg * reg
  | Ldaxr of reg * reg
  | Stxr of reg * reg * reg
  | Stlxr of reg * reg * reg
  | Cas of { acq : bool; rel : bool; cmp : reg; swap : reg; base : reg }
  | Ldadd of { acq : bool; rel : bool; old : reg; src : reg; base : reg }
  | Swp of { acq : bool; rel : bool; old : reg; src : reg; base : reg }
  | Dmb of barrier
  | Cmp of reg * operand
  | B of int
  | Bcc of cc * int
  | Cbz of reg * int
  | Cbnz of reg * int
  | Cset of reg * cc
  | Fp of fpop * reg * reg * reg
  | Blr_helper of string * reg list * reg option
  | Host_call of { func : string; args : reg list; ret : reg option }
  | Goto_tb of int64
  | Goto_ptr of reg
  | Exit_halt
  | Trap of { kind : string; context : string }

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Orr -> "orr"
  | Eor -> "eor"
  | Lsl -> "lsl"
  | Lsr -> "lsr"
  | Mul -> "mul"

let fp_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fsqrt -> "fsqrt"

let cc_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Lo -> "lo"
  | Ls -> "ls"
  | Hi -> "hi"
  | Hs -> "hs"

let barrier_name = function Full -> "ish" | Ld -> "ishld" | St -> "ishst"

let pp_reg ppf r = if r = xzr then Fmt.string ppf "xzr" else Fmt.pf ppf "x%d" r

let pp_operand ppf = function
  | R r -> pp_reg ppf r
  | I i -> Fmt.pf ppf "#%Ld" i

let pp ppf = function
  | Movz (r, i) -> Fmt.pf ppf "mov %a, #%Ld" pp_reg r i
  | Mov (a, b) -> Fmt.pf ppf "mov %a, %a" pp_reg a pp_reg b
  | Alu (op, d, a, b) ->
      Fmt.pf ppf "%s %a, %a, %a" (alu_name op) pp_reg d pp_reg a pp_operand b
  | Ldr (d, b, off) -> Fmt.pf ppf "ldr %a, [%a, #%Ld]" pp_reg d pp_reg b off
  | Str (s, b, off) -> Fmt.pf ppf "str %a, [%a, #%Ld]" pp_reg s pp_reg b off
  | Ldar (d, b) -> Fmt.pf ppf "ldar %a, [%a]" pp_reg d pp_reg b
  | Ldapr (d, b) -> Fmt.pf ppf "ldapr %a, [%a]" pp_reg d pp_reg b
  | Stlr (s, b) -> Fmt.pf ppf "stlr %a, [%a]" pp_reg s pp_reg b
  | Ldxr (d, b) -> Fmt.pf ppf "ldxr %a, [%a]" pp_reg d pp_reg b
  | Ldaxr (d, b) -> Fmt.pf ppf "ldaxr %a, [%a]" pp_reg d pp_reg b
  | Stxr (st, s, b) ->
      Fmt.pf ppf "stxr %a, %a, [%a]" pp_reg st pp_reg s pp_reg b
  | Stlxr (st, s, b) ->
      Fmt.pf ppf "stlxr %a, %a, [%a]" pp_reg st pp_reg s pp_reg b
  | Cas { acq; rel; cmp; swap; base } ->
      Fmt.pf ppf "cas%s%s %a, %a, [%a]"
        (if acq then "a" else "")
        (if rel then "l" else "")
        pp_reg cmp pp_reg swap pp_reg base
  | Ldadd { acq; rel; old; src; base } ->
      Fmt.pf ppf "ldadd%s%s %a, %a, [%a]"
        (if acq then "a" else "")
        (if rel then "l" else "")
        pp_reg src pp_reg old pp_reg base
  | Swp { acq; rel; old; src; base } ->
      Fmt.pf ppf "swp%s%s %a, %a, [%a]"
        (if acq then "a" else "")
        (if rel then "l" else "")
        pp_reg src pp_reg old pp_reg base
  | Dmb b -> Fmt.pf ppf "dmb %s" (barrier_name b)
  | Cmp (r, o) -> Fmt.pf ppf "cmp %a, %a" pp_reg r pp_operand o
  | B t -> Fmt.pf ppf "b @%d" t
  | Bcc (cc, t) -> Fmt.pf ppf "b.%s @%d" (cc_name cc) t
  | Cbz (r, t) -> Fmt.pf ppf "cbz %a, @%d" pp_reg r t
  | Cbnz (r, t) -> Fmt.pf ppf "cbnz %a, @%d" pp_reg r t
  | Cset (r, cc) -> Fmt.pf ppf "cset %a, %s" pp_reg r (cc_name cc)
  | Fp (op, d, a, b) ->
      Fmt.pf ppf "%s %a, %a, %a" (fp_name op) pp_reg d pp_reg a pp_reg b
  | Blr_helper (f, args, ret) ->
      Fmt.pf ppf "blr <%s>(%a)%a" f (Fmt.list ~sep:Fmt.comma pp_reg) args
        (Fmt.option (fun ppf r -> Fmt.pf ppf " -> %a" pp_reg r))
        ret
  | Host_call { func; args; ret } ->
      Fmt.pf ppf "host <%s>(%a)%a" func
        (Fmt.list ~sep:Fmt.comma pp_reg)
        args
        (Fmt.option (fun ppf r -> Fmt.pf ppf " -> %a" pp_reg r))
        ret
  | Goto_tb pc -> Fmt.pf ppf "goto_tb 0x%Lx" pc
  | Goto_ptr r -> Fmt.pf ppf "goto_ptr %a" pp_reg r
  | Exit_halt -> Fmt.string ppf "exit_halt"
  | Trap { kind; context } -> Fmt.pf ppf "trap.%s %S" kind context
