open Ast

let ( ! ) n = Int n
let r name = Reg name
let ld reg loc = Load { reg; loc; ord = Axiom.Event.R_plain }
let st loc v = Store { loc; value = Int v; ord = Axiom.Event.W_plain }
let st_e loc value = Store { loc; value; ord = Axiom.Event.W_plain }
let ld_acq reg loc = Load { reg; loc; ord = Axiom.Event.R_acq }
let ld_q reg loc = Load { reg; loc; ord = Axiom.Event.R_acq_pc }
let st_rel loc v = Store { loc; value = Int v; ord = Axiom.Event.W_rel }
let mfence = Fence Axiom.Event.F_mfence
let dmb_full = Fence Axiom.Event.F_dmb_full
let dmb_ld = Fence Axiom.Event.F_dmb_ld
let dmb_st = Fence Axiom.Event.F_dmb_st
let fence f = Fence f

let cas ?reg kind loc expect desired =
  Rmw { reg; loc; op = Cas { expect = Int expect; desired = Int desired }; kind }

let cas_x86 ?reg loc expect desired = cas ?reg Rmw_x86 loc expect desired
let cas_tcg ?reg loc expect desired = cas ?reg Rmw_tcg loc expect desired

let cas_amo_al ?reg loc expect desired =
  cas ?reg (Rmw_arm { impl = Amo; acq = true; rel = true }) loc expect desired

let cas_lxsx ?reg ?(acq = false) ?(rel = false) loc expect desired =
  cas ?reg (Rmw_arm { impl = Lxsx; acq; rel }) loc expect desired

let xadd_x86 ?reg loc v = Rmw { reg; loc; op = Fetch_add (Int v); kind = Rmw_x86 }
let xchg_x86 ?reg loc v = Rmw { reg; loc; op = Exchange (Int v); kind = Rmw_x86 }

let assign reg e = Assign (reg, e)
let if_ cond then_ = If { cond; then_; else_ = [] }
let if_else cond then_ else_ = If { cond; then_; else_ }

let prog name init codes =
  { name; init; threads = List.mapi (fun tid code -> { tid; code }) codes }

let reg_is tid reg v = Reg_is (tid, reg, v)
let loc_is loc v = Loc_is (loc, v)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let forbidden c p = { prog = p; expect = Forbidden c }
let allowed c p = { prog = p; expect = Allowed c }
