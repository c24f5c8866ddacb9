type pass = Const_fold | Dce | Mem_elim | Fence_merge

let pass_name = function
  | Const_fold -> "const-fold"
  | Dce -> "dce"
  | Mem_elim -> "mem-elim"
  | Fence_merge -> "fence-merge"

let all = [ Const_fold; Mem_elim; Dce; Fence_merge ]
let qemu_default = [ Const_fold; Mem_elim; Dce ]
let risotto_default = [ Const_fold; Mem_elim; Dce; Fence_merge ]

let rewrite ?ledger p w =
  match p with
  | Const_fold -> Constfold.rewrite w
  | Dce -> Dce.rewrite w
  | Mem_elim -> Memopt.rewrite w
  | Fence_merge -> Fenceopt.rewrite ?ledger w

let run_pass ?ledger p ops =
  let w = Work.of_array ops in
  rewrite ?ledger p w;
  Work.contents w

(* Per-pass wall-clock histograms (opt.<pass>.ns), registered on first
   use so a pipeline run can be attributed pass by pass. *)
let pass_hists =
  Obs.Metrics.once (fun () ->
      List.map (fun p -> (p, Obs.Metrics.histogram ("opt." ^ pass_name p ^ ".ns"))) all)

let pass_hist p = List.assq p (pass_hists ())

let record_fences l ~pass outcome (w : Work.t) =
  for i = 0 to w.len - 1 do
    match w.ops.(i) with
    | Op.Mb (kind, opc, rule) ->
        Fence_ledger.record l ~pass ~kind ~origin:{ Op.opc; rule } outcome
    | _ -> ()
  done

(* The barriers of [before] that [after] lacks, as a multiset.
   Fence_merge does its own accounting; this attributes a barrier any
   other pass deletes (none do today: Mb is impure and writes nothing,
   so Dce and Memopt keep it) instead of letting it vanish silently. *)
let record_dropped l ~pass before after =
  let remaining =
    ref
      (List.filter_map
         (function Op.Mb (f, opc, rule) -> Some (f, opc, rule) | _ -> None)
         (Array.to_list after))
  in
  Array.iter
    (function
      | Op.Mb (kind, opc, rule) ->
          let fo = (kind, opc, rule) in
          let rec remove = function
            | [] -> None
            | fo' :: rest when fo' = fo -> Some rest
            | fo' :: rest -> Option.map (fun r -> fo' :: r) (remove rest)
          in
          (match remove !remaining with
          | Some rest -> remaining := rest
          | None ->
              Fence_ledger.record l ~pass ~kind ~origin:{ Op.opc; rule } Fence_ledger.Dropped)
      | _ -> ())
    before

let live_fences (w : Work.t) =
  let n = ref 0 in
  for i = 0 to w.len - 1 do
    match w.ops.(i) with Op.Mb _ -> incr n | _ -> ()
  done;
  !n

(* One pass of {!run_in_place}: its span and timer when observed, and
   the fences it drops when accounting.  Closures are built only while
   observing. *)
let step acct observe (w : Work.t) p =
  (* Only accounting keeps the ops a non-merge pass started from. *)
  let before =
    match acct with Some _ when p <> Fence_merge -> Work.contents w | Some _ | None -> [||]
  in
  if observe && (Obs.Trace.enabled () || Obs.Metrics.enabled ()) then
    Obs.Trace.with_span ~cat:"opt" (pass_name p) (fun () ->
        Obs.Profile.time (pass_hist p) (fun () -> rewrite ?ledger:acct p w))
  else rewrite ?ledger:acct p w;
  match acct with
  | Some l when p <> Fence_merge ->
      if Fenceopt.count before <> live_fences w then
        record_dropped l ~pass:(pass_name p) before (Work.contents w)
  | Some _ | None -> ()

let rec steps acct observe w = function
  | [] -> ()
  | p :: rest ->
      step acct observe w p;
      steps acct observe w rest

let run_in_place ?ledger ?(observe = true) passes (w : Work.t) =
  let counting = observe && Obs.Metrics.enabled () in
  if not (counting || Option.is_some ledger) then steps None observe w passes
  else begin
    let l = Fence_ledger.create () in
    record_fences l ~pass:"frontend" Fence_ledger.Emitted w;
    steps (Some l) observe w passes;
    record_fences l ~pass:"pipeline" Fence_ledger.Kept w;
    if counting then Fence_ledger.publish l;
    Option.iter (fun into -> Fence_ledger.append ~into l) ledger
  end

let run ?ledger ?observe passes (b : Block.t) =
  let w = Work.of_array b.ops in
  run_in_place ?ledger ?observe passes w;
  Block.with_ops b (Work.contents w)
