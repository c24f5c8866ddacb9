module En = Litmus.Enumerate

type report = {
  name : string;
  ok : bool;
  src_behaviours : int;
  tgt_behaviours : int;
  extra : En.behaviour list;
}

(* Behaviour inclusion: the target behaviours with no source
   counterpart are the bug witnesses. *)
let verdict ~name bs bt =
  let extra =
    List.filter
      (fun b ->
        not (List.exists (fun b' -> En.behaviour_compare b b' = 0) bs))
      bt
  in
  {
    name;
    ok = extra = [];
    src_behaviours = List.length bs;
    tgt_behaviours = List.length bt;
    extra;
  }

let refines ~src_model ~tgt_model ~src ~tgt =
  (* Cancellation points between the two enumerations: a supervised
     sweep's deadline also fires when the source side finished in time
     but the target side would not have. *)
  Parallel.Supervise.poll ();
  let bs = En.behaviours src_model src in
  Parallel.Supervise.poll ();
  let bt = En.behaviours tgt_model tgt in
  verdict ~name:src.Litmus.Ast.name bs bt

(* ------------------------------------------------------------------ *)
(* Batch planner                                                       *)

type cell = {
  cell_scheme : string;
  cell_program : string;
  cell_f : Litmus.Ast.prog -> Litmus.Ast.prog;
  cell_src_model : Axiom.Model.t;
  cell_tgt_model : Axiom.Model.t;
  cell_src : Litmus.Ast.prog;
}

type job = {
  job_src : Litmus.Ast.prog;
  job_images : En.image list;
  job_probed : bool;
}

type need = Litmus.Ast.prog * Axiom.Model.t * bool

(* Instead of one opaque task per (scheme, program) cell, plan the whole
   sweep first: the enumeration work — where all the time goes — is
   grouped by source, one [En.pass] per distinct source over every
   target a cell maps it to, each under every model a cell needs it
   under.  Jobs are numbered in first-need order and every cell gets
   its job and target image numbers, so the caller assembles reports
   from a result array without hashing a program again.  Sources are
   found by structural hash, targets among their source's images. *)
type building = {
  mutable b_images : (Litmus.Ast.prog * Axiom.Model.t list ref) list;  (* the source first *)
  mutable b_probed : bool;
}

(* Programs keyed by their structural hash, computed once per cell:
   the table never rehashes an AST when it grows, and the sources
   every scheme shares compare physically. *)
module Prog_key = struct
  type t = { hash : int; prog : Litmus.Ast.prog }

  let equal a b = a.hash = b.hash && (a.prog == b.prog || a.prog = b.prog)
  let hash k = k.hash
end

module Prog_tbl = Hashtbl.Make (Prog_key)

(* The number of image [p] of [b], added if new, with [m] among its
   models. *)
let image b p (m : Axiom.Model.t) =
  match List.find_index (fun (q, _) -> q == p || q = p) b.b_images with
  | None ->
      b.b_images <- b.b_images @ [ (p, ref [ m ]) ];
      List.length b.b_images - 1
  | Some i ->
      let models = snd (List.nth b.b_images i) in
      if not (List.exists (fun (m' : Axiom.Model.t) -> String.equal m'.name m.name) !models)
      then models := m :: !models;
      i

let plan cells =
  let index = Prog_tbl.create 64 and building = ref [] and n = ref 0 in
  let indices =
    List.map
      (fun ((src, src_model, src_probed), (tgt, tgt_model, tgt_probed)) ->
        let key = { Prog_key.hash = Hashtbl.hash src; prog = src } in
        let j, b =
          match Prog_tbl.find_opt index key with
          | Some jb -> jb
          | None ->
              let b = { b_images = []; b_probed = false } in
              Prog_tbl.add index key (!n, b);
              building := b :: !building;
              incr n;
              (!n - 1, b)
        in
        ignore (image b src src_model);
        b.b_probed <- b.b_probed || src_probed || tgt_probed;
        (j, image b tgt tgt_model))
      cells
  in
  let jobs =
    Array.of_list
      (List.rev_map
         (fun b ->
           {
             job_src = fst (List.hd b.b_images);
             job_images = List.map (fun (p, models) -> (p, List.rev !models)) b.b_images;
             job_probed = b.b_probed;
           })
         !building)
  in
  (jobs, indices)

let assemble ~scheme ~program ~src ~tgt =
  verdict ~name:(Printf.sprintf "%s: %s" scheme program) src tgt

(* An image's behaviours under one of its models. *)
let model_result results (m : Axiom.Model.t) =
  fst (snd (List.find (fun (name, _) -> String.equal name m.name) results))

(* The batch engine: three pool maps — the transforms, one [En.pass] per
   planned job and the report assembly — with the plan on the caller
   between them.  [map_list] keeps input order and re-raises the
   lowest-index exception, so results are identical — contents and
   order — to checking each cell through [refines]. *)
let check_cells ?pool cells =
  let tgts = Parallel.Pool.map_list ?pool (fun c -> c.cell_f c.cell_src) cells in
  let jobs, indices =
    plan
      (List.map2
         (fun c tgt -> ((c.cell_src, c.cell_src_model, false), (tgt, c.cell_tgt_model, false)))
         cells tgts)
  in
  let results =
    Array.of_list
      (Parallel.Pool.map_list ?pool
         (fun j -> Array.of_list (En.pass ~probe:false j.job_src j.job_images))
         (Array.to_list jobs))
  in
  Parallel.Pool.map_list ?pool
    (fun (c, (j, t)) ->
      assemble ~scheme:c.cell_scheme ~program:c.cell_program
        ~src:(model_result results.(j).(0) c.cell_src_model)
        ~tgt:(model_result results.(j).(t) c.cell_tgt_model))
    (List.combine cells indices)

let check_scheme ?pool ~name f ~src_model ~tgt_model corpus =
  check_cells ?pool
    (List.map
       (fun (tname, src) ->
         {
           cell_scheme = name;
           cell_program = tname;
           cell_f = f;
           cell_src_model = src_model;
           cell_tgt_model = tgt_model;
           cell_src = src;
         })
       corpus)

let all_ok = List.for_all (fun r -> r.ok)

let pp_report ppf r =
  Fmt.pf ppf "[%s] %s (src:%d tgt:%d behaviours)"
    (if r.ok then "OK" else "VIOLATION")
    r.name r.src_behaviours r.tgt_behaviours;
  if not r.ok then
    Fmt.pf ppf "@,  new behaviours: @[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut En.pp_behaviour)
      r.extra
