type read_ord = R_plain | R_acq | R_acq_pc | R_sc
type write_ord = W_plain | W_rel | W_sc

type fence =
  | F_mfence
  | F_dmb_full
  | F_dmb_ld
  | F_dmb_st
  | F_rr
  | F_rw
  | F_rm
  | F_wr
  | F_ww
  | F_wm
  | F_mr
  | F_mw
  | F_mm
  | F_acq
  | F_rel
  | F_sc

type label =
  | Read of { loc : string; value : int; ord : read_ord }
  | Write of { loc : string; value : int; ord : write_ord }
  | Fence of fence

type t = { id : int; tid : int; label : label }

let init_tid = -1
let is_init e = e.tid = init_tid
let is_read e = match e.label with Read _ -> true | Write _ | Fence _ -> false
let is_write e = match e.label with Write _ -> true | Read _ | Fence _ -> false
let is_mem e = is_read e || is_write e
let is_fence e = match e.label with Fence _ -> true | Read _ | Write _ -> false

let loc e =
  match e.label with
  | Read { loc; _ } | Write { loc; _ } -> Some loc
  | Fence _ -> None

let value e =
  match e.label with
  | Read { value; _ } | Write { value; _ } -> Some value
  | Fence _ -> None


let fence_name = function
  | F_mfence -> "MFENCE"
  | F_dmb_full -> "DMB.FULL"
  | F_dmb_ld -> "DMB.LD"
  | F_dmb_st -> "DMB.ST"
  | F_rr -> "Frr"
  | F_rw -> "Frw"
  | F_rm -> "Frm"
  | F_wr -> "Fwr"
  | F_ww -> "Fww"
  | F_wm -> "Fwm"
  | F_mr -> "Fmr"
  | F_mw -> "Fmw"
  | F_mm -> "Fmm"
  | F_acq -> "Facq"
  | F_rel -> "Frel"
  | F_sc -> "Fsc"

let fence_index = function
  | F_mfence -> 0
  | F_dmb_full -> 1
  | F_dmb_ld -> 2
  | F_dmb_st -> 3
  | F_rr -> 4
  | F_rw -> 5
  | F_rm -> 6
  | F_wr -> 7
  | F_ww -> 8
  | F_wm -> 9
  | F_mr -> 10
  | F_mw -> 11
  | F_mm -> 12
  | F_acq -> 13
  | F_rel -> 14
  | F_sc -> 15

let fence_kinds = 16

let pp_fence ppf f = Fmt.string ppf (fence_name f)

let read_ord_name = function
  | R_plain -> ""
  | R_acq -> "^acq"
  | R_acq_pc -> "^q"
  | R_sc -> "^sc"

let write_ord_name = function W_plain -> "" | W_rel -> "^rel" | W_sc -> "^sc"

let pp_label ppf = function
  | Read { loc; value; ord } -> Fmt.pf ppf "R%s %s=%d" (read_ord_name ord) loc value
  | Write { loc; value; ord } ->
      Fmt.pf ppf "W%s %s=%d" (write_ord_name ord) loc value
  | Fence f -> pp_fence ppf f

let pp ppf e = Fmt.pf ppf "e%d[T%d: %a]" e.id e.tid pp_label e.label
