(* The checker's differential corpus, defined once for every suite that
   checks two ways of deciding the same thing agree: the whole catalog,
   one seeded generated sample and its [--corpus N] argument, each
   program's targets and images under the sweep's schemes, and the
   checker's QCheck generators.  Every checker parity property runs
   over it. *)

module Ast = Litmus.Ast
module C = Litmus.Catalog

(* ------------------------------------------------------------------ *)
(* The catalog                                                         *)

(* Shapes no catalog or generated program has.  Two Arm shapes whose
   weak outcome only lob's clauses through rfi forbid: load buffering
   through a forwarded store ((addr ∪ data); rfi), and an RMW's write
   read back by an acquire load ([codom(rmw)]; rfi; [A ∪ Q]).  And two
   branches whose events differ only in the values they store: their
   runs differ only in the branch they take, and a target's
   fence-deletion variant that drops a fence from one branch alone
   gives the two runs different image skeletons. *)
let hand_built =
  List.map Litmus.Parser.parse_prog
    [
      {|test LB+data-rfi
        thread P0 { ld r1, x; st y, r1; ld r2, y; st z, r2 }
        thread P1 { ld r3, z; st x, ((r3 * 0) + 1) }|};
      {|test MP+rmw-rfi-acq
        thread P0 { cas.lxsx x, 0, 1; ld.acq r1, x; st y, 1 }
        thread P1 { ld r2, y; fence DMB.FULL; ld r3, x }|};
      {|test MP+branch-twins
        init X=0 Y=0 Z=0
        thread P0 { st X, 1; st Y, 1 }
        thread P1 { ld a, Y; if (a == 1) { st Z, 1; ld b, X } else { st Z, 2; ld b, X } }|};
    ]

(* The shipped litmus/ directory: under dune runtest the cwd is
   _build/default/test, under dune exec the root. *)
let litmus_dir () = if Sys.file_exists "litmus" then "litmus" else "../litmus"

let litmus_files () =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".litmus")
       (Array.to_list (Sys.readdir (litmus_dir ()))))

let read_litmus name =
  Litmus.Parser.parse
    (In_channel.with_open_bin (Filename.concat (litmus_dir ()) name) In_channel.input_all)

(* Every hand-written program, once: the expectation suites under every
   model, the mapping and atomics corpora, the named paper programs, the
   shipped litmus files and the hand-built shapes (a program may appear
   under two names). *)
let catalog () =
  List.sort_uniq compare
  @@ List.map
       (fun (_, (t : Ast.test)) -> t.prog)
       C.(
         sc_tests @ x86_tests @ arm_tests_common @ arm_tests_original @ arm_tests_corrected
         @ tcg_tests)
  @ List.map snd (C.mapping_corpus @ C.atomics_corpus)
  @ C.
      [
        mp_x86; mpq_x86; mpq_qemu_arm; sbq_x86; sbq_qemu_arm; sbal_x86; sbal_armcats_arm;
        fmr_tcg_src; fmr_tcg_tgt; fig9_left_tcg; fig9_right_tcg;
      ]
  @ List.map (fun f -> (read_litmus f).Ast.prog) (litmus_files ())
  @ hand_built

(* The catalog programs an x86 source model and the store-buffer
   machine read: plain accesses, MFENCE and x86 RMWs only. *)
let x86_catalog () =
  let rec x86 = function
    | Ast.Load { ord = R_plain; _ }
    | Store { ord = W_plain; _ }
    | Fence F_mfence
    | Rmw { kind = Rmw_x86; _ }
    | Assign _ ->
        true
    | If { then_; else_; _ } -> List.for_all x86 (then_ @ else_)
    | Load _ | Store _ | Fence _ | Rmw _ -> false
  in
  List.filter
    (fun (p : Ast.prog) -> List.for_all (fun (t : Ast.thread) -> List.for_all x86 t.code) p.threads)
    (catalog ())

(* ------------------------------------------------------------------ *)
(* The seeded sample                                                   *)

let seed = 42

(* [--corpus N] sets how many programs of the sample every suite reads;
   the remaining arguments go to Alcotest ([argv]). *)
let size_arg = ref None

let argv =
  let rec go acc = function
    | "--corpus" :: n :: rest ->
        size_arg := Some (int_of_string n);
        go acc rest
    | a :: rest -> go (a :: acc) rest
    | [] -> Array.of_list (List.rev acc)
  in
  go [] (Array.to_list Sys.argv)

(* [--corpus N], or the suite's own [default] without it. *)
let size default = Option.value !size_arg ~default

(* The first [size default] programs [Generate.generate ~seed] draws:
   one stream, so every suite's sample is a prefix of every larger
   one's. *)
let sample ?config default = Litmus.Generate.generate ?config ~seed (size default)

(* ------------------------------------------------------------------ *)
(* Targets and images under the sweep's schemes                        *)

(* A program and its targets under every scheme of the catalog sweep
   ([schemes], when given, names a subset), each distinct program
   once. *)
let targets ?schemes p =
  let wanted (e : Report.Sweep.entry) = Option.fold schemes ~none:true ~some:(List.mem e.scheme) in
  List.sort_uniq compare
    (p
    :: List.filter_map
         (fun (e : Report.Sweep.entry) -> if wanted e then Some (e.f p) else None)
         (Report.Sweep.default_entries ()))

(* The images of an x86 source, as the planner merges them: the program
   itself under x86 first, then its target under every mapping scheme
   and every fence-deletion variant of each target, under the scheme's
   target model; each distinct program once with its models. *)
let images (p : Ast.prog) =
  let module Min = Mapping.Minimality in
  let add images (q, (m : Axiom.Model.t)) =
    match List.partition (fun (q', _) -> q' = q) images with
    | [ (_, ms) ], rest ->
        if List.exists (fun (m' : Axiom.Model.t) -> m'.name = m.name) ms then images
        else rest @ [ (q, ms @ [ m ]) ]
    | _ -> images @ [ (q, [ m ]) ]
  in
  List.fold_left add []
    ((p, Axiom.X86_tso.model)
    :: List.concat_map
         (fun (e : Report.Sweep.entry) ->
           let t = e.f p in
           (t, e.tgt_model)
           :: List.init (Min.fence_count t) (fun i -> (Min.delete_fence t i, e.tgt_model)))
         (Report.Sweep.mapping_entries ()))

(* ------------------------------------------------------------------ *)
(* Checking a program                                                  *)

(* Fail a property on [p], printing the program. *)
let fail (p : Ast.prog) fmt =
  Format.kasprintf (fun msg -> failwith (Format.asprintf "%s: %s@.%a" p.name msg Ast.pp_prog p)) fmt

(* [a] ⊆ [b] as behaviour sets. *)
let included a b =
  List.for_all (fun x -> List.exists (fun y -> Litmus.Enumerate.behaviour_compare x y = 0) b) a

(* Candidates grouped by combo: the candidates of one combo share their
   skeleton, consecutive, with physically equal event lists. *)
let by_skeleton cands =
  List.fold_right
    (fun (x : Axiom.Execution.t) groups ->
      match groups with
      | (y :: _ as g) :: rest when y.Axiom.Execution.events == x.events -> (x :: g) :: rest
      | _ -> [ x ] :: groups)
    cands []

(* ------------------------------------------------------------------ *)
(* Operational TSO = axiomatic x86                                     *)

(* The store-buffer machine against the axiomatic x86 model on an x86
   program: their behaviours are equal or, unless [exact], the
   machine's are a strict subset and the program has a CAS, the
   documented failed-RMW divergence (the machine drains its buffer on a
   failed LOCK CMPXCHG; the paper's model gives a failed RMW no fence
   power). *)
let tso_against_axiomatic ~exact (p : Ast.prog) =
  let module En = Litmus.Enumerate in
  let op = Litmus.Tso_machine.behaviours p and ax = En.behaviours Axiom.X86_tso.model p in
  let rec cas = function
    | Ast.Rmw { op = Cas _; _ } -> true
    | If { then_; else_; _ } -> List.exists cas (then_ @ else_)
    | _ -> false
  in
  if
    List.equal (fun a b -> En.behaviour_compare a b = 0) op ax
    || (not exact)
       && List.exists (fun (t : Ast.thread) -> List.exists cas t.code) p.threads
       && included op ax
  then Ok ()
  else
    Error
      (Printf.sprintf "%s: operational %d vs axiomatic %d behaviours" p.name (List.length op)
         (List.length ax))

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)

let shrink_exp = function
  | Ast.Int n when n <> 0 -> QCheck.Iter.return (Ast.Int (if n > 0 then n - 1 else n + 1))
  | _ -> QCheck.Iter.empty

let shrink_instr =
  let open QCheck.Iter in
  function
  | Ast.Store s -> map (fun value -> Ast.Store { s with value }) (shrink_exp s.value)
  | Rmw ({ op = Cas { expect; desired }; _ } as c) ->
      map (fun expect -> Ast.Rmw { c with op = Cas { expect; desired } }) (shrink_exp expect)
      <+> map (fun desired -> Ast.Rmw { c with op = Cas { expect; desired } }) (shrink_exp desired)
  | Rmw ({ op = Fetch_add e; _ } as c) ->
      map (fun e -> Ast.Rmw { c with op = Fetch_add e }) (shrink_exp e)
  | Rmw ({ op = Exchange e; _ } as c) ->
      map (fun e -> Ast.Rmw { c with op = Exchange e }) (shrink_exp e)
  | Assign (r, e) -> map (fun e -> Ast.Assign (r, e)) (shrink_exp e)
  | Load _ | Fence _ | If _ -> empty

(* One thread fewer (the rest renumbered), one instruction fewer (no
   thread left empty), or one constant closer to zero. *)
let shrink_prog (p : Ast.prog) yield =
  let without k = List.filteri (fun j _ -> j <> k) in
  let renumber = List.mapi (fun tid t -> { t with Ast.tid }) in
  if List.length p.threads > 1 then
    List.iteri (fun i _ -> yield { p with threads = renumber (without i p.threads) }) p.threads;
  let set (t : Ast.thread) code =
    yield { p with threads = List.map (fun u -> if u == t then { t with code } else u) p.threads }
  in
  List.iter
    (fun (t : Ast.thread) ->
      if List.length t.code > 1 then List.iteri (fun k _ -> set t (without k t.code)) t.code)
    p.threads;
  List.iter
    (fun (t : Ast.thread) ->
      let replace k i = List.mapi (fun j x -> if j = k then i else x) t.code in
      List.iteri (fun k i -> shrink_instr i (fun i -> set t (replace k i))) t.code)
    p.threads

let arbitrary gen = QCheck.make ~print:(Format.asprintf "%a" Ast.pp_prog) ~shrink:shrink_prog gen

let arb_generated = arbitrary (Litmus.Generate.gen ?config:None)

(* Two threads of one to three instructions over X and Y.  [arb_prog]
   draws from every model's alphabet: plain and acquire/release
   accesses, each fence, x86 and Arm RMWs, assignments.  [arb_x86_prog]
   from the x86 one alone: plain accesses, MFENCE, x86 RMWs,
   assignments. *)
let arb_prog, arb_x86_prog =
  let open QCheck.Gen in
  let loc = oneofl [ "X"; "Y" ] and reg = oneofl [ "a"; "b"; "c" ] and value = int_range 0 2 in
  let two_threads name alphabet =
    let thread = list_size (1 -- 3) (oneof alphabet) in
    let prog t0 t1 = Litmus.Dsl.prog name [ ("X", 0); ("Y", 0) ] [ t0; t1 ] in
    arbitrary (map2 prog thread thread)
  in
  let fences = Axiom.Event.[ F_mfence; F_dmb_full; F_dmb_ld; F_dmb_st; F_rm; F_ww; F_sc ] in
  let open Litmus.Dsl in
  let x86 =
    [
      map2 ld reg loc;
      map2 st loc value;
      map3 cas_x86 loc value value;
      map3 (fun r l v -> xadd_x86 ~reg:r l v) reg loc value;
      map2 xchg_x86 loc value;
      map2 (fun r v -> assign r (Ast.Int v)) reg value;
    ]
  in
  ( two_threads "rand"
      (map2 ld_acq reg loc
      :: map2 st_rel loc value
      :: map fence (oneofl fences)
      :: map3 cas_amo_al loc value value
      :: x86),
    two_threads "rand-x86" (pure mfence :: x86) )
