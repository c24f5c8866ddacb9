open Relalg

type variant = Original | Corrected

(* lws: local write successor — a memory event ordered to a po-later
   same-location write. *)
let lws x =
  let w = Execution.writes x in
  let m = Execution.mems x in
  Rel.restrict m (Execution.po_loc x) w

(* bob: barrier-ordered-before (Figure 5, including the standard
   acquire/release clauses elided by the paper's "∪ ···"). *)
let bob variant x =
  let po = x.Execution.po in
  let r = Execution.reads x and w = Execution.writes x in
  let f = Execution.fences x Event.F_dmb_full in
  let fld = Execution.fences x Event.F_dmb_ld in
  let fst_ = Execution.fences x Event.F_dmb_st in
  let a = Execution.acq_reads x in
  let q = Execution.acq_pc_reads x in
  let l = Execution.rel_writes x in
  (* po; [F]; po, computed fence first: most programs have no fence
     of a given kind, and then every clause through it is empty. *)
  let through f = Rel.compose (Rel.compose po (Rel.id f)) po in
  let base =
    [
      through f;
      Rel.compose (Rel.id r) (through fld);
      Rel.compose (Rel.id w) (Rel.compose (through fst_) (Rel.id w));
      (* Acquire / acquirePC reads order with their po-successors. *)
      Rel.compose (Rel.id (Iset.union a q)) po;
      (* Release writes order with their po-predecessors. *)
      Rel.compose po (Rel.id l);
      (* A release is ordered with a later acquire. *)
      Rel.restrict l po a;
    ]
  in
  (* The amo clause: [A]; amo; [L] are the acquire-release
     single-instruction RMWs (e.g. casal). *)
  let amo_al = Rel.restrict a x.Execution.amo l in
  let amo_clause =
    match variant with
    | Original -> [ Rel.sequence [ po; amo_al; po ] ]
    | Corrected ->
        [
          Rel.compose po (Rel.id (Rel.domain amo_al));
          Rel.compose (Rel.id (Rel.codomain amo_al)) po;
        ]
  in
  Rel.union_all (base @ amo_clause)

(* lob's base relation, staged.  Every clause of lws, dob, aob and bob
   is decided by the skeleton except the two that pass through rfi:
   dob's (addr ∪ data); rfi and aob's [codom(rmw)]; rfi; [A ∪ Q]. *)
type staged = { static : Rel.t; dep : Rel.t; rmw_w : Iset.t; aq : Iset.t }

let stage variant x =
  let po = x.Execution.po in
  let w = Execution.writes x in
  let addr = x.Execution.addr and data = x.Execution.data in
  let rmw = Execution.rmw x in
  let static =
    Rel.union_all
      [
        lws x;
        (* dob: data and ctrl (and optionally addr) dependencies. *)
        addr;
        data;
        Rel.compose x.Execution.ctrl (Rel.id w);
        Rel.compose addr (Rel.compose po (Rel.id w));
        (* aob *)
        rmw;
        bob variant x;
      ]
  in
  {
    static;
    dep = Rel.union addr data;
    rmw_w = Rel.codomain rmw;
    aq = Iset.union (Execution.acq_reads x) (Execution.acq_pc_reads x);
  }

let lob_base s x =
  let rfi = Execution.rfi x in
  Rel.union_all [ s.static; Rel.compose s.dep rfi; Rel.restrict s.rmw_w rfi s.aq ]

let external_ x = [ Execution.rfe x; Execution.coe x; Execution.fre x ]
let lob variant x = Rel.transitive_closure (lob_base (stage variant x) x)
let ob_base variant x = Rel.union_all (lob variant x :: external_ x)

(* acyclic(ext ∪ lob⁺) iff acyclic(ext ∪ lob's base): a cycle through
   lob⁺ edges unfolds into one through base edges.  The check tests the
   base; witnesses are searched in ob with lob closed, where one lob⁺
   edge stands for a chain of base edges. *)
let define variant name =
  Model.make name
    [
      Model.coherence;
      Model.acyclic "Arm (external: ob)" ~witness:(ob_base variant) (fun skel ->
          let s = stage variant skel in
          fun x -> Rel.union_all (lob_base s x :: external_ x));
      Model.atomicity;
    ]

let original = define Original "Arm-Cats (original)"
let corrected = define Corrected "Arm-Cats (corrected)"
let model = function Original -> original | Corrected -> corrected
