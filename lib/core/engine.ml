let log_src = Logs.Src.create "risotto.engine" ~doc:"Risotto DBT engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Observability handles.  Counters that are cheap and cold (translate,
   faults, superblocks) are mirrored into the registry live; the hot
   dispatch counters stay plain [stats] fields and are published as
   gauges by {!publish_metrics} so the dispatch loop pays nothing for
   them. *)
let m_translate_ns = lazy (Obs.Metrics.histogram "engine.translate.ns")
let m_compile_ns = lazy (Obs.Metrics.histogram "engine.compile.ns")
let m_block_cycles = lazy (Obs.Metrics.histogram "engine.block.cycles")
let m_translated = lazy (Obs.Metrics.counter "engine.blocks_translated")
let m_fallbacks = lazy (Obs.Metrics.counter "engine.interp_fallbacks")
let m_traps = lazy (Obs.Metrics.counter "engine.traps")
let m_superblocks = lazy (Obs.Metrics.counter "engine.superblocks")

(* Tier-lifecycle latency: how long a block waited from compile request
   to publication, and how long its finished result sat in the
   completion queue before the execution thread applied it. *)
let m_req_to_publish = lazy (Obs.Metrics.histogram "tier.request_to_publish.ns")
let m_install_queue = lazy (Obs.Metrics.histogram "tier.install_queue.ns")

type stats = {
  mutable blocks_translated : int;
  mutable blocks_executed : int;  (** dispatches through the execute loop *)
  mutable cache_hits : int;
  mutable lookups : int;
  mutable fences_emitted : int;
  mutable tcg_ops_before_opt : int;
  mutable tcg_ops_after_opt : int;
  mutable chained : int;  (** block exits patched into direct edges *)
  mutable chain_hits : int;  (** dispatches served by a patched edge *)
  mutable jmp_cache_hits : int;
      (** dispatches served by the per-thread jump cache *)
  mutable superblocks : int;  (** hot traces stitched and installed *)
  mutable interp_fallbacks : int;
      (** blocks the backend could not compile, demoted to the TCG
          interpreter *)
  mutable traps : int;  (** guest threads finished by a fault *)
  mutable cache_quarantined : int;
      (** persistent-cache entries that failed their checksum and were
          dropped (the block retranslates on demand) *)
  mutable interp_execs : int;
      (** dispatches served by the TCG interpreter (tier 0 + degraded
          blocks) *)
  mutable tier1_installed : int;
      (** compile requests whose native TB was published (tier 1) *)
  mutable deopts : int;
      (** superblocks demoted back to tier-1 TBs on side-exit-rate
          regression *)
  mutable installs_dropped : int;
      (** compile results discarded by the generation check (reset /
          cache reload raced an in-flight install) *)
  mutable install_hwm : int;
      (** install-queue depth high-water mark *)
}

(* How the block at a pc executes: natively, or on the TCG interpreter
   because the backend could not compile it (or has not yet — tier 0). *)
type compiled = Native of Arm.Insn.t array | Interp_only of Tcg.Block.t

(* A finished compile request travelling back from the background
   domain to the execution thread.  [i_gen] is the chain generation the
   request was made under: a reset or cache reload in between bumps the
   generation and the install is dropped, the same invalidation
   discipline Tbchain applies to patched edges and jump caches. *)
type install = {
  i_pc : int64;
  i_gen : int;
  i_result : (Arm.Insn.t array, Fault.t) result;
  i_req_us : float;
      (* request wall-clock (µs), 0. when metrics were off at request
         time so latency observation stays metered *)
  i_done_us : float;  (* completion-queue push wall-clock (µs), or 0. *)
}

type t = {
  config : Config.t;
  image : Image.Gelf.t;
  links : Linker.Link.t;
  frontend : Frontend.t;
  mem : Memsys.Mem.t;
  shared : Arm.Machine.shared;
  tbs : compiled Tbchain.t;
      (* the code cache: every translated block (native or degraded),
         plus chain edges and hot-trace state *)
  tcg_cache : (int64, Tcg.Block.t) Hashtbl.t;
      (* optimized TCG per pc, kept for inspection and trace stitching *)
  inject : Inject.t;
  stats : stats;
  pending_spawns : (int * int64 * int64) Queue.t;  (* tid, entry, arg *)
  next_tid : int ref;
  install_service : Parallel.Pool.service option;
      (* background compile domains; None when this engine compiles
         synchronously *)
  completions : install Queue.t;  (* guarded by [completions_m] *)
  completions_m : Mutex.t;
  completions_n : int Atomic.t;
      (* pushed count minus applied count; the dispatch loop's one-load
         "anything to publish?" probe.  Incremented after the push, so
         a positive value guarantees a non-empty queue. *)
  flight : Obs.Flight.t;
      (* engine-wide flight ring: tier publishes, superblocks, deopts,
         install drops — lifecycle events not owned by one thread *)
  ledgers : (int64, Tcg.Fence_ledger.t) Hashtbl.t;
      (* per-block fence provenance, keyed by guest pc *)
  mutable guest_threads : guest_thread list;
      (* every thread ever spawned (newest first), so a postmortem can
         show what each was doing *)
  mutable postmortem_dir : string option;
  mutable postmortems_written : int;
}

and guest_thread = {
  arm : Arm.Machine.thread;
  mutable pc : int64;
  mutable finished : bool;
  mutable trap : Fault.t option;
  jcache : compiled Tbchain.jcache;
  mutable next_tb : compiled Tbchain.node option;
      (* chained target patched in by the previous block's exit *)
  mutable next_gen : int;  (* chain-table generation [next_tb] is valid for *)
  gflight : Obs.Flight.t;  (* this thread's flight ring (single writer) *)
}

(* One process-wide background translation service, spawned lazily by
   the first async-tiered engine and shared by all of them: OCaml
   domains are a bounded resource (and every live domain joins each
   stop-the-world minor collection), so engines must not spawn one
   each.  Each compile job publishes into its own engine's completion
   queue, so sharing the workers shares nothing else. *)
let default_install_service =
  lazy (Parallel.Pool.service_create ~workers:1 ())

let create ?cost ?idl ?install_service config image =
  (* Default IDL: everything the host library provides (when the linker
     is enabled).  Pass [~idl:[]] explicitly to link nothing. *)
  let idl =
    match idl with
    | Some sigs -> sigs
    | None ->
        if config.Config.host_linker then
          Linker.Idl.parse Linker.Hostlib.idl_text
        else []
  in
  let links = Linker.Link.resolve image idl in
  let mem = Memsys.Mem.create () in
  let shared = Arm.Machine.create_shared ?cost mem in
  let pending_spawns = Queue.create () in
  let next_tid = ref 0 in
  let inject = Inject.create config.Config.inject in
  Helpers.register_all
    ~on_clone:(fun ~entry ~arg ->
      let tid = !next_tid in
      incr next_tid;
      Queue.push (tid, entry, arg) pending_spawns;
      Int64.of_int tid)
    ~inject shared;
  let install_service =
    (* Resolve (and lazily spawn) workers only when this config can
       actually submit: sync engines must stay domain-free. *)
    if config.Config.sync_compile || config.Config.jit_threshold = 0 then None
    else
      Some
        (match install_service with
        | Some s -> s
        | None -> Lazy.force default_install_service)
  in
  let t = {
    config;
    image;
    links;
    frontend = Frontend.create ~inject config image links;
    mem;
    shared;
    tbs = Tbchain.create ~chain:config.Config.chain ();
    (* Sized like the chain table: real images translate far more than
       the 64 buckets the old caches started with. *)
    tcg_cache = Hashtbl.create 4096;
    inject;
    stats =
      {
        blocks_translated = 0;
        blocks_executed = 0;
        cache_hits = 0;
        lookups = 0;
        fences_emitted = 0;
        tcg_ops_before_opt = 0;
        tcg_ops_after_opt = 0;
        chained = 0;
        chain_hits = 0;
        jmp_cache_hits = 0;
        superblocks = 0;
        interp_fallbacks = 0;
        traps = 0;
        cache_quarantined = 0;
        interp_execs = 0;
        tier1_installed = 0;
        deopts = 0;
        installs_dropped = 0;
        install_hwm = 0;
      };
    pending_spawns;
    next_tid;
    install_service;
    completions = Queue.create ();
    completions_m = Mutex.create ();
    completions_n = Atomic.make 0;
    flight = Obs.Flight.create ();
    ledgers = Hashtbl.create 1024;
    guest_threads = [];
    postmortem_dir = None;
    postmortems_written = 0;
  }
  in
  t

let config t = t.config
let memory t = t.mem
let stats t = t.stats
let links t = t.links
let injector t = t.inject
let flight t = t.flight
let thread_flight g = g.gflight
let set_postmortem_dir t dir = t.postmortem_dir <- dir
let postmortem_dir t = t.postmortem_dir
let postmortems_written t = t.postmortems_written
let fence_ledger t pc = Hashtbl.find_opt t.ledgers pc

let fence_ledgers t =
  Hashtbl.fold (fun pc l acc -> (pc, l) :: acc) t.ledgers []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
let chain_generation t = Tbchain.generation t.tbs
let chained_edges t = Tbchain.edge_count t.tbs
let stack_top tid = Int64.sub 0x8000_0000L (Int64.of_int (tid * 0x10000))

(* Drop every completion still queued (without waiting for in-flight
   background jobs: their results arrive stamped with the pre-bump
   generation and die at the apply-side check). *)
let discard_pending_installs t =
  Mutex.lock t.completions_m;
  let dropped = Queue.length t.completions in
  Queue.clear t.completions;
  Mutex.unlock t.completions_m;
  if dropped > 0 then begin
    ignore (Atomic.fetch_and_add t.completions_n (-dropped));
    t.stats.installs_dropped <- t.stats.installs_dropped + dropped;
    Obs.Metrics.add (Lazy.force Tier.m_installs_dropped) dropped
  end

let reset t =
  Obs.Trace.instant ~cat:"engine" "reset";
  (* Order matters: discard queued installs first, then bump the
     generation via flush, so anything a background domain publishes
     after this point is stale by construction.  Per-block tier
     profiles die with their nodes. *)
  discard_pending_installs t;
  Tbchain.flush t.tbs;
  Hashtbl.reset t.tcg_cache

(* The one compile path, eager or queued: run [compile] (the backend
   over one block) unless the compile injection already fired, and
   classify every failure as a backend fault located at [pc]. *)
let compile_block ~pc ~injected compile =
  if injected then
    Error (Fault.make ~pc Fault.Backend_fault "injected compile fault")
  else
    match compile () with
    | code -> Ok code
    | exception Fault.Fault f -> Error (Fault.locate ~pc f)
    | exception Backend.Register_pressure p ->
        Error
          (Fault.make ~pc Fault.Backend_fault
             (Printf.sprintf "register pressure in block 0x%Lx" p))

let count_fences t code =
  t.stats.fences_emitted <-
    t.stats.fences_emitted
    + Array.fold_left
        (fun n i -> match i with Arm.Insn.Dmb _ -> n + 1 | _ -> n)
        0 code

let translate t pc =
  Obs.Trace.with_span ~cat:"engine"
    ~args:(fun () -> [ ("pc", Printf.sprintf "0x%Lx" pc) ])
    "translate"
  @@ fun () ->
  Obs.Profile.time (Lazy.force m_translate_ns) @@ fun () ->
  let raw =
    Obs.Trace.with_span ~cat:"engine" "frontend" (fun () ->
        Frontend.translate t.frontend pc)
  in
  Log.info (fun m ->
      m "translate tb@0x%Lx: %d guest insns -> %d tcg ops" pc
        raw.Tcg.Block.guest_insns (Tcg.Block.op_count raw));
  let ledger = Tcg.Fence_ledger.create () in
  let optimized = Tcg.Pipeline.run ~ledger t.config.Config.passes raw in
  Hashtbl.replace t.ledgers pc ledger;
  Obs.Flight.record t.flight Obs.Flight.Fence_pass pc
    (Tcg.Fenceopt.count optimized.Tcg.Block.ops);
  t.stats.blocks_translated <- t.stats.blocks_translated + 1;
  Obs.Metrics.incr (Lazy.force m_translated);
  t.stats.tcg_ops_before_opt <-
    t.stats.tcg_ops_before_opt + Tcg.Block.op_count raw;
  t.stats.tcg_ops_after_opt <-
    t.stats.tcg_ops_after_opt + Tcg.Block.op_count optimized;
  Hashtbl.replace t.tcg_cache pc optimized;
  if t.config.Config.jit_threshold > 0 then
    (* Tier 0: the block starts life on the TCG interpreter (state
       [Cold], fresh profile) and the backend compile is deferred until
       its execution count crosses the threshold. *)
    Tbchain.insert t.tbs pc (Interp_only optimized)
  else begin
    let compiled =
      compile_block ~pc ~injected:(Inject.fire t.inject Inject.Compile)
        (fun () ->
          Obs.Trace.with_span ~cat:"engine" "backend" (fun () ->
              Obs.Profile.time (Lazy.force m_compile_ns) (fun () ->
                  Backend.compile t.config optimized)))
    in
    let body =
      match compiled with
      | Ok code ->
          count_fences t code;
          Native code
      | Error f ->
          (* Degraded mode: the block stays on the TCG interpreter.  The
             run keeps its semantics (the interpreter and backend agree by
             construction), only this block's speed is lost. *)
          Log.warn (fun m ->
              m "tb@0x%Lx: backend failed (%s); falling back to interpreter" pc
                (Fault.to_string f));
          t.stats.interp_fallbacks <- t.stats.interp_fallbacks + 1;
          Obs.Metrics.incr (Lazy.force m_fallbacks);
          Interp_only optimized
    in
    let n = Tbchain.insert t.tbs pc body in
    n.Tbchain.tier.Tier.state <-
      (match body with
      | Native _ -> Tier.Published
      | Interp_only _ -> Tier.Degraded);
    n
  end

(* ------------------------------------------------------------------ *)
(* Tier 1: the async install queue.  The execution thread enqueues
   compile jobs (capturing the immutable optimized TCG block, the
   config, and the chain generation at request time); a background
   service domain runs the pure [Backend.compile] and pushes the result
   into [completions]; the execution thread publishes it into the chain
   table between dispatches.  The background domain never touches the
   engine's tables — publication is single-writer, and the
   mutex-protected queue plus the post-push atomic increment are the
   release/acquire pair that makes the compiled code array safely
   visible (see DESIGN.md, "tier ladder"). *)

let apply_install t inst =
  let stale () =
    t.stats.installs_dropped <- t.stats.installs_dropped + 1;
    Obs.Flight.record t.flight Obs.Flight.Install_drop inst.i_pc inst.i_gen;
    Obs.Metrics.incr (Lazy.force Tier.m_installs_dropped)
  in
  (* Lifecycle latency is metered end-to-end: observe only when the
     request was stamped (metrics on at request time) and metrics are
     still on now. *)
  let observe_latency () =
    if inst.i_req_us > 0. && Obs.Metrics.enabled () then begin
      let now = Obs.Profile.now_us () in
      Obs.Metrics.observe
        (Lazy.force m_req_to_publish)
        (int_of_float ((now -. inst.i_req_us) *. 1e3));
      if inst.i_done_us > 0. then
        Obs.Metrics.observe
          (Lazy.force m_install_queue)
          (int_of_float ((now -. inst.i_done_us) *. 1e3))
    end
  in
  if inst.i_gen <> Tbchain.generation t.tbs then stale ()
  else
    match Tbchain.find t.tbs inst.i_pc with
    | Some node when node.Tbchain.tier.Tier.state = Tier.Queued -> (
        match inst.i_result with
        | Ok code ->
            node.Tbchain.body <- Native code;
            (* A superblock can only exist over a Native body, so with
               state Queued the active translation is the body. *)
            node.Tbchain.active <- node.Tbchain.body;
            node.Tbchain.tier.Tier.state <- Tier.Published;
            count_fences t code;
            t.stats.tier1_installed <- t.stats.tier1_installed + 1;
            Obs.Flight.record t.flight Obs.Flight.Tier_published inst.i_pc
              inst.i_gen;
            observe_latency ();
            Obs.Trace.instant ~cat:"engine"
              ~args:(fun () -> [ ("pc", Printf.sprintf "0x%Lx" inst.i_pc) ])
              "tier-publish";
            Obs.Metrics.incr (Lazy.force Tier.m_installs);
            Log.debug (fun m ->
                m "tb@0x%Lx: tier-1 TB published (%d host insns)" inst.i_pc
                  (Array.length code))
        | Error f ->
            node.Tbchain.tier.Tier.state <- Tier.Degraded;
            Obs.Flight.record t.flight Obs.Flight.Tier_degraded inst.i_pc
              inst.i_gen;
            t.stats.interp_fallbacks <- t.stats.interp_fallbacks + 1;
            Obs.Metrics.incr (Lazy.force m_fallbacks);
            Obs.Metrics.incr (Lazy.force Tier.m_install_failures);
            Log.warn (fun m ->
                m "tb@0x%Lx: background compile failed (%s); staying on \
                   interpreter"
                  inst.i_pc (Fault.to_string f)))
    | Some _ | None ->
        (* Same generation but the node was dropped or re-seeded
           (e.g. a cache reload re-inserted it): the request no longer
           describes the block. *)
        stale ()

let apply_completions t =
  if Atomic.get t.completions_n > 0 then begin
    Mutex.lock t.completions_m;
    let k = Queue.length t.completions in
    let items = List.init k (fun _ -> Queue.pop t.completions) in
    Mutex.unlock t.completions_m;
    ignore (Atomic.fetch_and_add t.completions_n (-k));
    if k > t.stats.install_hwm then t.stats.install_hwm <- k;
    List.iter (apply_install t) items
  end

let request_compile t node =
  match node.Tbchain.body with
  | Native _ -> ()
  | Interp_only tcg ->
      let p = node.Tbchain.tier in
      p.Tier.state <- Tier.Queued;
      Obs.Metrics.incr (Lazy.force Tier.m_requests);
      let pc = node.Tbchain.pc in
      let gen = Tbchain.generation t.tbs in
      Obs.Flight.record t.flight Obs.Flight.Tier_queued pc gen;
      let req_us = if Obs.Metrics.enabled () then Obs.Profile.now_us () else 0. in
      (* Fault injection is stateful: fire on the execution thread at
         enqueue time, so a plan's Nth/Seeded counters stay
         deterministic however the background domain schedules. *)
      let injected = Inject.fire t.inject Inject.Compile in
      let config = t.config in
      let job () =
        let result =
          compile_block ~pc ~injected (fun () -> Backend.compile config tcg)
        in
        let done_us = if req_us > 0. then Obs.Profile.now_us () else 0. in
        Mutex.lock t.completions_m;
        Queue.push
          { i_pc = pc; i_gen = gen; i_result = result; i_req_us = req_us;
            i_done_us = done_us }
          t.completions;
        Mutex.unlock t.completions_m;
        Atomic.incr t.completions_n
      in
      (match t.install_service with
      | Some svc when not t.config.Config.sync_compile ->
          Parallel.Pool.service_submit svc job;
          let depth = Parallel.Pool.service_pending svc in
          if depth > t.stats.install_hwm then t.stats.install_hwm <- depth
      | Some _ | None ->
          (* The determinism escape hatch ([sync_compile]): same
             request/publish path, run to completion inline. *)
          job ();
          apply_completions t)

(* Wait for every in-flight background compile, then publish (or drop)
   the results.  No-op for synchronous engines. *)
let drain_installs t =
  (match t.install_service with
  | Some svc -> Parallel.Pool.service_drain svc
  | None -> ());
  apply_completions t

let fetch t pc =
  t.stats.lookups <- t.stats.lookups + 1;
  match Tbchain.find t.tbs pc with
  | Some n ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      n.Tbchain.body
  | None -> (translate t pc).Tbchain.body

let lookup_block t pc =
  match fetch t pc with
  | Native code -> code
  | Interp_only _ ->
      Fault.raise_ ~pc Fault.Backend_fault
        "block is interpreter-only (backend failed to compile it)"

let tcg_block t pc =
  ignore (fetch t pc);
  Hashtbl.find t.tcg_cache pc

let spawn t ~tid ~entry ?(regs = []) () =
  t.next_tid := max !(t.next_tid) (tid + 1);
  let arm = Arm.Machine.create_thread tid in
  arm.Arm.Machine.regs.(X86.Reg.index X86.Reg.RSP) <- stack_top tid;
  List.iter
    (fun (r, v) -> arm.Arm.Machine.regs.(X86.Reg.index r) <- v)
    regs;
  let g =
    {
      arm;
      pc = entry;
      finished = false;
      trap = None;
      jcache = Tbchain.jcache_create t.tbs;
      next_tb = None;
      next_gen = Tbchain.generation t.tbs;
      gflight = Obs.Flight.create ();
    }
  in
  t.guest_threads <- g :: t.guest_threads;
  g

(* Threads created by the guest's clone syscall since the last drain. *)
let drain_spawns t =
  let spawned = ref [] in
  while not (Queue.is_empty t.pending_spawns) do
    let tid, entry, arg = Queue.pop t.pending_spawns in
    let g = spawn t ~tid ~entry ~regs:[ (X86.Reg.RDI, arg) ] () in
    spawned := g :: !spawned
  done;
  List.rev !spawned

let fault_of_machine_trap pc = function
  | Arm.Machine.Trap_insn { kind; context } ->
      Fault.make ~pc (Fault.of_tag kind) context
  | Arm.Machine.Unknown_helper name ->
      Fault.make ~pc Fault.Helper_fault ("unknown helper " ^ name)
  | Arm.Machine.Unknown_host func ->
      Fault.make ~pc Fault.Link_fault ("unknown host function " ^ func)
  | Arm.Machine.Runaway -> Fault.make ~pc Fault.Watchdog "runaway block"
  | Arm.Machine.Fell_through i ->
      Fault.make ~pc Fault.Translate_fault
        (Printf.sprintf "block fell through at index %d" i)

(* ------------------------------------------------------------------ *)
(* Postmortems: on a trap (or watchdog exhaustion / injected fault) the
   engine serialises a self-contained picture of what just happened —
   every thread's last flight-ring events, the engine-wide lifecycle
   ring, per-block tier states, the fence ledger of each trapping
   block, a chain-table summary and the deterministic slice of the
   metrics registry — as compact JSON via {!Report.Json}.  Everything
   included is a pure function of the guest program, config, seed and
   inject plan (no wall-clock values, no histograms), so two identical
   runs produce byte-identical postmortems. *)

let state_name = function
  | Tier.Cold -> "cold"
  | Tier.Queued -> "queued"
  | Tier.Published -> "published"
  | Tier.Degraded -> "degraded"

let json_of_event (e : Obs.Flight.event) =
  Report.Json.Obj
    [
      ("seq", Report.Json.Int e.Obs.Flight.seq);
      ("kind", Report.Json.String (Obs.Flight.kind_name e.Obs.Flight.kind));
      ("pc", Report.Json.String (Printf.sprintf "0x%Lx" e.Obs.Flight.pc));
      ("arg", Report.Json.Int e.Obs.Flight.arg);
    ]

let json_of_ledger_entry (e : Tcg.Fence_ledger.entry) =
  let base =
    [
      ("pass", Report.Json.String e.Tcg.Fence_ledger.pass);
      ("kind", Report.Json.String (Axiom.Event.fence_name e.Tcg.Fence_ledger.kind));
      ( "guest_pc",
        Report.Json.String (Printf.sprintf "0x%Lx" e.Tcg.Fence_ledger.origin.Tcg.Op.opc) );
      ( "rule",
        Report.Json.String e.Tcg.Fence_ledger.origin.Tcg.Op.rule );
      ( "outcome",
        Report.Json.String (Tcg.Fence_ledger.outcome_name e.Tcg.Fence_ledger.outcome) );
    ]
  in
  let extra =
    match e.Tcg.Fence_ledger.outcome with
    | Tcg.Fence_ledger.Merged { into; result } ->
        [
          ("into_pc", Report.Json.String (Printf.sprintf "0x%Lx" into.Tcg.Op.opc));
          ("into_rule", Report.Json.String into.Tcg.Op.rule);
          ("result", Report.Json.String (Axiom.Event.fence_name result));
        ]
    | Tcg.Fence_ledger.Strengthened { from } ->
        [ ("from", Report.Json.String (Axiom.Event.fence_name from)) ]
    | Tcg.Fence_ledger.Emitted | Tcg.Fence_ledger.Kept
    | Tcg.Fence_ledger.Dropped ->
        []
  in
  Report.Json.Obj (base @ extra)

let json_of_ledger pc l =
  Report.Json.Obj
    [
      ("pc", Report.Json.String (Printf.sprintf "0x%Lx" pc));
      ( "entries",
        Report.Json.List
          (List.map json_of_ledger_entry (Tcg.Fence_ledger.entries l)) );
    ]

(* Deterministic metrics slice: counters and gauges only (histograms
   carry wall-clock samples), and nothing time-valued (.ns / .us). *)
let deterministic_metric (name, _) =
  not
    (String.ends_with ~suffix:".ns" name
    || String.ends_with ~suffix:".us" name)

let postmortem_json ?(last = 32) t ~reason =
  let threads =
    List.sort
      (fun a b -> compare a.arm.Arm.Machine.tid b.arm.Arm.Machine.tid)
      t.guest_threads
  in
  let json_of_thread g =
    Report.Json.Obj
      [
        ("tid", Report.Json.Int g.arm.Arm.Machine.tid);
        ("pc", Report.Json.String (Printf.sprintf "0x%Lx" g.pc));
        ("finished", Report.Json.Bool g.finished);
        ( "trap",
          match g.trap with
          | Some f -> Report.Json.String (Fault.to_string f)
          | None -> Report.Json.Null );
        ( "events",
          Report.Json.List
            (List.map json_of_event (Obs.Flight.last ~n:last g.gflight)) );
      ]
  in
  let tiers =
    Tbchain.fold
      (fun pc n acc ->
        Report.Json.Obj
          [
            ("pc", Report.Json.String (Printf.sprintf "0x%Lx" pc));
            ("state", Report.Json.String (state_name n.Tbchain.tier.Tier.state));
            ("execs", Report.Json.Int n.Tbchain.exec_count);
            ("super_len", Report.Json.Int n.Tbchain.super_len);
          ]
        :: acc)
      t.tbs []
  in
  let tiers =
    (* Hashtbl fold order is unspecified: re-sort by the pc string we
       just embedded so the artifact is stable. *)
    List.sort
      (fun a b ->
        match (Report.Json.member "pc" a, Report.Json.member "pc" b) with
        | Some (Report.Json.String x), Some (Report.Json.String y) -> compare x y
        | _ -> 0)
      tiers
  in
  let trapping_ledgers =
    List.filter_map
      (fun g ->
        match g.trap with
        | Some _ ->
            Option.map (json_of_ledger g.pc) (Hashtbl.find_opt t.ledgers g.pc)
        | None -> None)
      threads
  in
  let metrics =
    if Obs.Metrics.enabled () then begin
      let snap = Obs.Metrics.snapshot () in
      let fields kvs =
        List.filter deterministic_metric kvs
        |> List.map (fun (k, v) -> (k, Report.Json.Int v))
      in
      Report.Json.Obj
        [
          ("counters", Report.Json.Obj (fields snap.Obs.Metrics.counters));
          ("gauges", Report.Json.Obj (fields snap.Obs.Metrics.gauges));
        ]
    end
    else Report.Json.Null
  in
  Report.Json.Obj
    [
      ("schema", Report.Json.String "risotto.postmortem.v1");
      ("reason", Report.Json.String reason);
      ("config", Report.Json.String t.config.Config.name);
      ("threads", Report.Json.List (List.map json_of_thread threads));
      ( "engine_events",
        Report.Json.List
          (List.map json_of_event (Obs.Flight.last ~n:last t.flight)) );
      ("tiers", Report.Json.List tiers);
      ("fence_ledgers", Report.Json.List trapping_ledgers);
      ( "chain",
        Report.Json.Obj
          [
            ("generation", Report.Json.Int (Tbchain.generation t.tbs));
            ("edges", Report.Json.Int (Tbchain.edge_count t.tbs));
          ] );
      ("metrics", metrics);
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Write one postmortem artifact (when a directory is configured) and
   count it.  Failures to write must never take down the engine: the
   postmortem is a diagnostic of a failure already being handled. *)
let dump_postmortem t ~reason =
  match t.postmortem_dir with
  | None -> ()
  | Some dir -> (
      try
        mkdir_p dir;
        let path =
          Filename.concat dir
            (Printf.sprintf "postmortem-%03d.json" t.postmortems_written)
        in
        let body = Report.Json.to_string (postmortem_json t ~reason) in
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc body);
        t.postmortems_written <- t.postmortems_written + 1;
        Log.warn (fun m -> m "postmortem written: %s" path)
      with Sys_error msg | Unix.Unix_error (_, msg, _) ->
        Log.err (fun m -> m "postmortem write failed: %s" msg))

(* Record a fault against one guest thread; only that thread stops. *)
let fault_thread t g f =
  let f = Fault.locate ~pc:g.pc ~tid:g.arm.Arm.Machine.tid f in
  t.stats.traps <- t.stats.traps + 1;
  Obs.Metrics.incr (Lazy.force m_traps);
  Obs.Trace.instant ~cat:"engine"
    ~args:(fun () -> [ ("fault", Fault.to_string f) ])
    "trap";
  Log.warn (fun m ->
      m "T%d trapped: %s" g.arm.Arm.Machine.tid (Fault.to_string f));
  Obs.Flight.record g.gflight Obs.Flight.Trap g.pc 0;
  g.trap <- Some f;
  g.finished <- true;
  dump_postmortem t ~reason:("trap: " ^ Fault.to_string f)

(* Degraded execution: run the TCG block in the interpreter against
   this thread's pinned state.  Every TCG global lives in the Arm
   register of the same number — 0–15 the guest GP registers, 16/17
   (cmp_a/cmp_b) the lazy flags — so they are copied in and out around
   the block, and a block may set the flags on one tier and branch on
   them on the other; helpers dispatch through the machine's
   registry (so syscalls, RMW helpers and host calls behave exactly as
   in native execution). *)
let step_interp t g b =
  let arm = g.arm in
  let helpers name args =
    match Arm.Machine.find_helper t.shared name with
    | Some h -> h t.shared arm args
    | None -> raise (Tcg.Interp.No_helper name)
  in
  let env = Tcg.Interp.create_env ~helpers t.mem in
  for r = 0 to Tcg.Op.nb_globals - 1 do
    env.Tcg.Interp.temps.(r) <- arm.Arm.Machine.regs.(r)
  done;
  let res = Tcg.Interp.exec_block env b in
  for r = 0 to Tcg.Op.nb_globals - 1 do
    arm.Arm.Machine.regs.(r) <- env.Tcg.Interp.temps.(r)
  done;
  res

let exec t g = function
  | Native code -> (
      Log.debug (fun m ->
          m "T%d exec tb@0x%Lx (%d host insns)" g.arm.Arm.Machine.tid g.pc
            (Array.length code));
      match Arm.Machine.exec_block t.shared g.arm code with
      | Arm.Machine.Next_tb pc -> `Next pc
      | Arm.Machine.Jump pc -> `Jump pc
      | Arm.Machine.Halted -> `Halt
      | Arm.Machine.Trapped tr -> `Trap (fault_of_machine_trap g.pc tr)
      | exception Fault.Fault f -> `Trap f)
  | Interp_only b -> (
      Log.debug (fun m ->
          m "T%d interp tb@0x%Lx (%d tcg ops)" g.arm.Arm.Machine.tid g.pc
            (Tcg.Block.op_count b));
      match step_interp t g b with
      (* Helpers run mid-block (exit syscall) may halt the thread. *)
      | Tcg.Interp.Next_tb pc ->
          if g.arm.Arm.Machine.halted then `Halt else `Next pc
      | Tcg.Interp.Jump pc ->
          if g.arm.Arm.Machine.halted then `Halt else `Jump pc
      | Tcg.Interp.Halted -> `Halt
      | Tcg.Interp.Trapped (kind, context) ->
          `Trap (Fault.make ~pc:g.pc (Fault.of_tag kind) context)
      | exception Fault.Fault f -> `Trap f)

(* Dispatch: resolve the thread's pc to a chain node.  Fast paths in
   order — the edge the previous block patched in, the per-thread jump
   cache, the global table — before translating.  Every dispatch counts
   as a lookup; [cache_hits] counts the ones a fresh translation was
   avoided for, with [chain_hits]/[jmp_cache_hits] recording which fast
   path served them. *)
let dispatch t g =
  (* Publish any finished background compiles first: one atomic load on
     the fast path, and the thread that requested a block is usually
     the next one to run it. *)
  if Atomic.get t.completions_n > 0 then apply_completions t;
  t.stats.lookups <- t.stats.lookups + 1;
  let gen = Tbchain.generation t.tbs in
  match g.next_tb with
  | Some n when g.next_gen = gen && Int64.equal n.Tbchain.pc g.pc ->
      g.next_tb <- None;
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      t.stats.chain_hits <- t.stats.chain_hits + 1;
      n
  | _ -> (
      g.next_tb <- None;
      match Tbchain.jcache_find t.tbs g.jcache g.pc with
      | Some n ->
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          t.stats.jmp_cache_hits <- t.stats.jmp_cache_hits + 1;
          n
      | None -> (
          match Tbchain.find t.tbs g.pc with
          | Some n ->
              t.stats.cache_hits <- t.stats.cache_hits + 1;
              Tbchain.jcache_store t.tbs g.jcache n;
              n
          | None ->
              let n = translate t g.pc in
              Tbchain.jcache_store t.tbs g.jcache n;
              n))

(* ------------------------------------------------------------------ *)
(* Tier 2 — hot-trace superblocks: once a block head crosses the
   hotness threshold *and* its profile shows a dominant observed
   successor path, stitch that path into one TCG block, re-run the
   configured optimizer pipeline so Fenceopt/Memopt/Dce see across the
   former block boundaries, and compile the result.  Side exits
   (untaken branch arms, back edges, computed jumps) fall back to the
   original blocks, so installation can never change results — only
   which code services the hot path.  A superblock whose side-exit rate
   regresses is deoptimized back to its tier-1 TB. *)

let trace_limit = 8

(* The hot path out of [head], following each block's dominant observed
   static successor (the only seams [Tcg.Block.concat] can stitch —
   computed jumps never qualify because they dilute dominance through
   the profile's [other] bucket).  Revisits are allowed, so a self-loop
   unrolls.  The profile sees every observed exit, not only the ones
   chaining happened to patch into edges. *)
let profile_path t head ~limit =
  let rec go acc n k =
    if k = 0 then List.rev acc
    else
      match Tier.dominant n.Tbchain.tier with
      | None -> List.rev acc
      | Some (pc, _) -> (
          match Tbchain.find t.tbs pc with
          | None -> List.rev acc
          | Some next -> go (next :: acc) next (k - 1))
  in
  go [ head ] head (limit - 1)

(* [`Not_ready] is retryable (a member of the path is still cold or
   untranslated — common under async tier 1); [`Failed] latches
   [no_super]. *)
let form_superblock t head =
  let path = profile_path t head ~limit:trace_limit in
  let tcg_of n =
    match n.Tbchain.body with
    | Native _ -> (
        match Hashtbl.find_opt t.tcg_cache n.Tbchain.pc with
        | Some b -> `Tcg b
        | None -> `Failed (* loaded from cache: no TCG to stitch *))
    | Interp_only _ ->
        if n.Tbchain.tier.Tier.state = Tier.Degraded then `Failed
        else `Not_ready
  in
  let rec collect = function
    | [] -> `Blocks []
    | n :: rest -> (
        match tcg_of n with
        | (`Failed | `Not_ready) as x -> x
        | `Tcg b -> (
            match collect rest with
            | `Blocks bs -> `Blocks (b :: bs)
            | x -> x))
  in
  if List.length path < 2 then `Not_ready
  else
    match collect path with
    | (`Failed | `Not_ready) as x -> x
    | `Blocks blocks -> (
        let stitched =
          Tcg.Pipeline.run t.config.Config.passes (Tcg.Block.concat blocks)
        in
        match Backend.compile t.config stitched with
        | code ->
            Log.info (fun m ->
                m "superblock@0x%Lx: %d blocks, %d tcg ops" head.Tbchain.pc
                  (List.length blocks)
                  (Tcg.Block.op_count stitched));
            (* When the whole trace executes, it exits to the tail's
               dominant successor; anything else is a side exit. *)
            let tail = List.nth path (List.length path - 1) in
            let expected_exit =
              match Tier.dominant tail.Tbchain.tier with
              | Some (pc, _) -> pc
              | None -> -1L
            in
            `Installed (Native code, List.length blocks, expected_exit)
        | exception Fault.Fault _ -> `Failed
        | exception Backend.Register_pressure _ -> `Failed)

let maybe_superblock t node =
  let threshold = t.config.Config.trace_threshold in
  if
    threshold > 0
    && Tbchain.chaining t.tbs
    && node.Tbchain.exec_count >= threshold
    && node.Tbchain.super_len = 0
    && (not node.Tbchain.no_super)
    && (match node.Tbchain.body with Native _ -> true | Interp_only _ -> false)
    && Option.is_some (Tier.dominant node.Tbchain.tier)
  then
    match
      Obs.Trace.with_span ~cat:"engine"
        ~args:(fun () -> [ ("pc", Printf.sprintf "0x%Lx" node.Tbchain.pc) ])
        "superblock"
        (fun () -> form_superblock t node)
    with
    | `Installed (super, len, expected_exit) ->
        Tbchain.install_super node super ~len;
        Tier.note_super_installed node.Tbchain.tier ~expected_exit;
        Obs.Flight.record t.flight Obs.Flight.Superblock node.Tbchain.pc len;
        t.stats.superblocks <- t.stats.superblocks + 1;
        Obs.Metrics.incr (Lazy.force m_superblocks);
        Obs.Metrics.incr (Lazy.force Tier.m_promotions)
    | `Not_ready -> ()
    | `Failed -> node.Tbchain.no_super <- true

(* Tier-2 demotion: the superblock's observed side-exit rate crossed
   Tier's regression bound, so the stitched tail is mostly wasted work
   (and mispredicted path).  Fall back to the tier-1 TB and retrain the
   successor profile; after [Tier.max_deopts] demotions the block stops
   retrying. *)
let maybe_deopt t node =
  let p = node.Tbchain.tier in
  if Tier.should_deopt p then begin
    node.Tbchain.active <- node.Tbchain.body;
    node.Tbchain.super_len <- 0;
    Tier.note_deopt p;
    if not (Tier.retry_allowed p) then node.Tbchain.no_super <- true;
    Obs.Flight.record t.flight Obs.Flight.Tier_deopt node.Tbchain.pc
      p.Tier.deopt_count;
    t.stats.deopts <- t.stats.deopts + 1;
    Obs.Metrics.incr (Lazy.force Tier.m_deopts);
    Log.info (fun m ->
        m "superblock@0x%Lx deoptimized (side-exit regression)"
          node.Tbchain.pc)
  end

let step_block t g =
  if not g.finished then
    match
      match dispatch t g with
      | node ->
          t.stats.blocks_executed <- t.stats.blocks_executed + 1;
          node.Tbchain.exec_count <- node.Tbchain.exec_count + 1;
          let p = node.Tbchain.tier in
          (* Tier 0 -> 1: request the backend compile once the block
             proves hot.  [Cold] implies an interpreter body, so the
             check is two loads on the (sync-preset) fast path. *)
          if
            p.Tier.state = Tier.Cold
            && t.config.Config.jit_threshold > 0
            && node.Tbchain.exec_count >= t.config.Config.jit_threshold
          then request_compile t node;
          (match node.Tbchain.active with
          | Interp_only _ ->
              Obs.Flight.record g.gflight Obs.Flight.Block_enter g.pc 0;
              t.stats.interp_execs <- t.stats.interp_execs + 1;
              p.Tier.interp_execs <- p.Tier.interp_execs + 1
          | Native _ ->
              Obs.Flight.record g.gflight Obs.Flight.Block_enter g.pc 1);
          maybe_superblock t node;
          if node.Tbchain.super_len > 0 then Tier.record_super_entry p;
          (* Cycle attribution for hot-block ranking is metered: one
             enabled check per dispatch when off.  Guest cycle counting
             is deterministic, so reading it cannot perturb the run. *)
          if Obs.Metrics.enabled () then begin
            let c0 = g.arm.Arm.Machine.cycles in
            let r = exec t g node.Tbchain.active in
            let dc = g.arm.Arm.Machine.cycles - c0 in
            node.Tbchain.prof_cycles <- node.Tbchain.prof_cycles + dc;
            Obs.Metrics.observe (Lazy.force m_block_cycles) dc;
            `Ran (node, r)
          end
          else `Ran (node, exec t g node.Tbchain.active)
      | exception Fault.Fault f -> `Trap f
    with
    | `Ran (node, `Next pc) ->
        (* Branch-outcome profile: a plain block records its observed
           static successor; a superblock records whether it ran to its
           expected exit, which is what drives demotion.  Recording is
           unconditional (not metrics-gated) so observability cannot
           perturb tier decisions. *)
        if node.Tbchain.super_len > 0 then begin
          Tier.record_super_exit node.Tbchain.tier pc;
          maybe_deopt t node
        end
        else Tier.record_succ node.Tbchain.tier pc;
        (* Static exit: follow the patched edge, or patch one the first
           time the target is found translated.  Either way the next
           dispatch of this thread skips the hashtable. *)
        (match Tbchain.follow node pc with
        | Some target ->
            g.next_tb <- Some target;
            g.next_gen <- Tbchain.generation t.tbs
        | None -> (
            match Tbchain.find t.tbs pc with
            | Some target ->
                if Tbchain.link t.tbs node ~epc:pc target then
                  t.stats.chained <- t.stats.chained + 1;
                if Tbchain.chaining t.tbs then begin
                  g.next_tb <- Some target;
                  g.next_gen <- Tbchain.generation t.tbs
                end
            | None -> ()));
        g.pc <- pc
    | `Ran (node, `Jump pc) ->
        if node.Tbchain.super_len = 0 then Tier.record_other node.Tbchain.tier;
        g.pc <- pc
    | `Ran (node, `Halt) ->
        if node.Tbchain.super_len = 0 then Tier.record_other node.Tbchain.tier;
        Log.debug (fun m -> m "T%d halted" g.arm.Arm.Machine.tid);
        g.finished <- true
    | `Ran (node, `Trap f) ->
        if node.Tbchain.super_len = 0 then Tier.record_other node.Tbchain.tier;
        fault_thread t g f
    | `Trap f -> fault_thread t g f

type outcome =
  | Completed of guest_thread list
  | Exhausted of {
      blocks : int;
      live_threads : int;
      threads : guest_thread list;
    }

let threads = function
  | Completed ts -> ts
  | Exhausted { threads; _ } -> threads

(* Round-robin at block granularity; guest clone syscalls may add
   threads between rounds.  A queue plus a live counter keeps each
   round O(threads): no per-round re-filtering of the thread list, and
   spawned threads append in O(1) instead of rebuilding the list. *)
let run_concurrent ?(max_blocks = 50_000_000) t threads0 =
  Obs.Trace.with_span ~cat:"engine"
    ~args:(fun () -> [ ("threads", string_of_int (List.length threads0)) ])
    "run_concurrent"
  @@ fun () ->
  let all = Queue.create () in
  let live = ref 0 in
  let add g =
    Queue.push g all;
    if not g.finished then incr live
  in
  List.iter add threads0;
  let n = ref 0 in
  while !live > 0 && !n < max_blocks do
    Queue.iter
      (fun g ->
        if not g.finished then begin
          incr n;
          step_block t g;
          if g.finished then decr live
        end)
      all;
    List.iter add (drain_spawns t)
  done;
  let threads = List.of_seq (Queue.to_seq all) in
  if !live = 0 then Completed threads
  else begin
    Log.warn (fun m ->
        m "watchdog: block budget %d exhausted with %d live thread(s)"
          max_blocks !live);
    List.iter
      (fun g ->
        if not g.finished then
          Obs.Flight.record g.gflight Obs.Flight.Watchdog g.pc !n)
      threads;
    dump_postmortem t
      ~reason:(Printf.sprintf "exhausted: block budget spent, %d live" !live);
    Exhausted { blocks = !n; live_threads = !live; threads }
  end

let run_thread ?max_blocks t g = ignore (run_concurrent ?max_blocks t [ g ])

let run ?max_blocks ?regs t =
  let g = spawn t ~tid:0 ~entry:t.image.Image.Gelf.entry ?regs () in
  run_thread ?max_blocks t g;
  g

let reg g r = g.arm.Arm.Machine.regs.(X86.Reg.index r)
let cycles g = g.arm.Arm.Machine.cycles
let trap g = g.trap

(* ------------------------------------------------------------------ *)
(* Profiling views over the code cache and the stats record.           *)

(* Hottest translated blocks, ranked by observed-path heat (execution
   count plus dominant-successor hits from the tier profile — the
   tier-2 candidate ordering), with attributed guest cycles and raw
   counts carried along for display and fallback ranking. *)
let hot_blocks ?limit t =
  let entries =
    Tbchain.fold
      (fun pc n acc ->
        if n.Tbchain.exec_count = 0 then acc
        else
          {
            Obs.Profile.key = pc;
            count = n.Tbchain.exec_count;
            cost = n.Tbchain.prof_cycles;
            heat = Tier.heat ~execs:n.Tbchain.exec_count n.Tbchain.tier;
          }
          :: acc)
      t.tbs []
  in
  Obs.Profile.rank ?limit entries

(* One-line run summary for CLIs.  The core fields are printed
   unconditionally — in particular [interp-fallbacks], so a clean run
   is distinguishable from a run where degradation went unreported.
   The two install-queue fields are zero-suppressed and named after
   their gauges ([installs_dropped] / [install_hwm]): most runs never
   drop an install, and a sync engine has no queue at all. *)
let stats_line t g =
  let s = t.stats in
  Printf.sprintf
    "cycles=%d blocks=%d executed=%d chained=%d chain-hits=%d \
     jcache-hits=%d superblocks=%d interp-fallbacks=%d traps=%d \
     cache-quarantined=%d interp-execs=%d tier1-installed=%d deopts=%d%s%s"
    g.arm.Arm.Machine.cycles s.blocks_translated s.blocks_executed s.chained
    s.chain_hits s.jmp_cache_hits s.superblocks s.interp_fallbacks s.traps
    s.cache_quarantined s.interp_execs s.tier1_installed s.deopts
    (if s.installs_dropped > 0 then
       Printf.sprintf " installs-dropped=%d" s.installs_dropped
     else "")
    (if s.install_hwm > 0 then Printf.sprintf " install-hwm=%d" s.install_hwm
     else "")

(* Publish the hot-path dispatch counters (kept as plain mutable fields
   so dispatch pays nothing for them) into the metrics registry as
   gauges.  Call once at end of run, e.g. before printing a snapshot. *)
let publish_metrics t =
  if Obs.Metrics.enabled () then begin
    let s = t.stats in
    let set name v = Obs.Metrics.set (Obs.Metrics.gauge name) v in
    set "engine.stats.blocks_translated" s.blocks_translated;
    set "engine.stats.blocks_executed" s.blocks_executed;
    set "engine.stats.cache_hits" s.cache_hits;
    set "engine.stats.lookups" s.lookups;
    set "engine.stats.fences_emitted" s.fences_emitted;
    set "engine.stats.tcg_ops_before_opt" s.tcg_ops_before_opt;
    set "engine.stats.tcg_ops_after_opt" s.tcg_ops_after_opt;
    set "engine.stats.chained" s.chained;
    set "engine.stats.chain_hits" s.chain_hits;
    set "engine.stats.jmp_cache_hits" s.jmp_cache_hits;
    set "engine.stats.superblocks" s.superblocks;
    set "engine.stats.interp_fallbacks" s.interp_fallbacks;
    set "engine.stats.traps" s.traps;
    set "engine.stats.cache_quarantined" s.cache_quarantined;
    set "engine.stats.interp_execs" s.interp_execs;
    set "engine.stats.tier1_installed" s.tier1_installed;
    set "engine.stats.deopts" s.deopts;
    set "engine.stats.installs_dropped" s.installs_dropped;
    set "engine.stats.install_hwm" s.install_hwm;
    Tier.publish ~interp_execs:s.interp_execs ~installed:s.tier1_installed
      ~superblocks:s.superblocks ~deopts:s.deopts ~queue_hwm:s.install_hwm
      ~dropped:s.installs_dropped
  end

(* ------------------------------------------------------------------ *)
(* Persistent translation cache: translated host code keyed by guest
   pc, reusable across runs (cf. the translation-caching systems in the
   paper's related work, e.g. WOW64).  The cache is only valid for the
   configuration that produced it.

   Format v2 ("RSTC2\n") frames every entry as

     pc:16hex  len:%08d  crc:8hex  body[len]

   where [crc] is the CRC-32 of [body] (the [Arm.Encode.encode_block]
   bytes).  Length framing means a single flipped bit damages exactly
   one entry: the loader drops (quarantines) that entry, counts it in
   [stats.cache_quarantined] and the [cache.corrupt] metric, and the
   block simply retranslates on first execution.  Structural damage —
   bad magic, truncation, a config mismatch, an unparsable frame
   header — still fails the whole file, because nothing after the
   damage can be trusted to be aligned. *)

let cache_magic = "RSTC2\n"

let cache_corrupt_metric = "cache.corrupt"

let save_cache t path =
  let b = Buffer.create 4096 in
  Buffer.add_string b cache_magic;
  Buffer.add_char b (Char.chr (String.length t.config.Config.name));
  Buffer.add_string b t.config.Config.name;
  let entries =
    Tbchain.fold
      (fun pc n acc ->
        match n.Tbchain.body with
        | Native code -> (pc, code) :: acc
        | Interp_only _ -> acc)
      t.tbs []
    |> List.sort compare
  in
  Buffer.add_string b (Printf.sprintf "%08d" (List.length entries));
  let body = Buffer.create 256 in
  List.iter
    (fun (pc, code) ->
      Buffer.clear body;
      Arm.Encode.encode_block body code;
      let s = Buffer.contents body in
      Buffer.add_string b (Printf.sprintf "%016Lx" pc);
      Buffer.add_string b (Printf.sprintf "%08d" (String.length s));
      Buffer.add_string b (Checksum.Crc32.to_hex (Checksum.Crc32.digest s));
      Buffer.add_string b s)
    entries;
  (* Write-to-temp then rename: a crash mid-write must not leave a
     truncated cache under the real name. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents b));
  (* The injected crash window: tmp is fully written, the rename has
     not happened.  A real crash here leaves the previous cache (if
     any) intact under [path] — which is exactly what the chaos
     campaign asserts. *)
  if Inject.fire t.inject Inject.Cache_write then
    Fault.raise_ Fault.Cache_corrupt
      (Printf.sprintf "injected cache-write fault before rename of %s" path);
  Sys.rename tmp path;
  List.length entries

(* Shared v2 parser.  [config] (when given) must match the recorded
   config name.  [on_entry] receives every structurally complete entry
   as [pc, Ok code] or [pc, Error reason] (checksum mismatch / decode
   failure inside an intact frame).  Raises [Fault Cache_corrupt] on
   structural damage. *)
let parse_cache ?config ~on_entry s =
  let corrupt fmt =
    Printf.ksprintf (fun m -> Fault.raise_ Fault.Cache_corrupt m) fmt
  in
  let pos = ref 0 in
  let take n =
    if !pos + n > String.length s then corrupt "truncated";
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  if take (String.length cache_magic) <> cache_magic then corrupt "bad magic";
  let name_len = Char.code (take 1).[0] in
  let name = take name_len in
  (match config with
  | Some c when name <> c ->
      corrupt "cache was built for config %S, engine runs %S" name c
  | Some _ | None -> ());
  let count =
    match int_of_string_opt (take 8) with
    | Some n when n >= 0 -> n
    | Some _ | None -> corrupt "bad entry count"
  in
  for i = 1 to count do
    let pc =
      match Int64.of_string_opt ("0x" ^ take 16) with
      | Some pc -> pc
      | None -> corrupt "bad pc in entry %d" i
    in
    let len =
      match int_of_string_opt (take 8) with
      | Some n when n >= 0 -> n
      | Some _ | None -> corrupt "bad length in entry %d" i
    in
    let crc =
      match Checksum.Crc32.of_hex (take 8) with
      | Some c -> c
      | None -> corrupt "bad checksum field in entry %d" i
    in
    let body = take len in
    if Checksum.Crc32.digest body <> crc then
      on_entry i pc (Error "checksum mismatch")
    else
      match Arm.Decode.decode_block body 0 with
      | code, pos' when pos' = len -> on_entry i pc (Ok code)
      | _, pos' ->
          on_entry i pc
            (Error
               (Printf.sprintf "decoded %d of %d bytes (checksum collision?)"
                  pos' len))
      | exception Arm.Decode.Bad_encoding (at, msg) ->
          on_entry i pc (Error (Printf.sprintf "offset %d: %s" at msg))
  done;
  if !pos <> String.length s then
    corrupt "%d trailing bytes after last entry" (String.length s - !pos);
  count

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_cache t path =
  match
    let s = read_file path in
    (* Stage into a private table: a fault mid-parse must not leave a
       half-loaded code cache behind. *)
    let staged = Hashtbl.create 16 in
    let quarantined = ref 0 in
    let on_entry i pc = function
      | Ok code ->
          if Inject.fire t.inject Inject.Cache_read then
            Fault.raise_ Fault.Cache_corrupt
              (Printf.sprintf "injected cache-read fault at entry %d" i)
          else Hashtbl.replace staged pc code
      | Error reason ->
          incr quarantined;
          Log.warn (fun m ->
              m "cache %s entry %d (pc 0x%Lx) quarantined: %s" path i pc
                reason)
    in
    let _count =
      parse_cache ~config:t.config.Config.name ~on_entry s
    in
    (staged, !quarantined)
  with
  | staged, quarantined ->
      (* Loaded translations replace whatever the engine had patched
         jumps into: discard queued installs, then unchain everything
         (bumping the generation, so per-thread jump caches, pending
         chained targets and in-flight background compiles all die)
         before installing the staged blocks.  [clear_links] also
         resets every surviving node's tier profile — a resumed run
         must not promote on counters trained before the reload. *)
      discard_pending_installs t;
      Tbchain.clear_links t.tbs;
      Hashtbl.iter
        (fun pc code ->
          let n = Tbchain.insert t.tbs pc (Native code) in
          n.Tbchain.tier.Tier.state <- Tier.Published)
        staged;
      t.stats.cache_quarantined <- t.stats.cache_quarantined + quarantined;
      if quarantined > 0 && Obs.Metrics.enabled () then
        Obs.Metrics.add (Obs.Metrics.counter cache_corrupt_metric) quarantined;
      Obs.Trace.instant ~cat:"engine"
        ~args:(fun () ->
          [
            ("blocks", string_of_int (Hashtbl.length staged));
            ("quarantined", string_of_int quarantined);
          ])
        "load_cache";
      Ok (Hashtbl.length staged)
  | exception Fault.Fault f ->
      Log.warn (fun m ->
          m "persistent cache %s unusable (%s); starting cold" path
            (Fault.to_string f));
      Error f
  | exception Sys_error msg ->
      let f = Fault.make Fault.Cache_corrupt msg in
      Log.warn (fun m ->
          m "persistent cache %s unreadable (%s); starting cold" path msg);
      Error f

(* Offline integrity check, used by [gelf_tool verify].  Does not need
   an engine: config binding is reported, not enforced. *)
let verify_cache path =
  match
    let s = read_file path in
    let ok = ref 0 in
    let bad = ref [] in
    let on_entry i pc = function
      | Ok _ -> incr ok
      | Error reason ->
          bad := Printf.sprintf "entry %d (pc 0x%Lx): %s" i pc reason :: !bad
    in
    let _count = parse_cache ~on_entry s in
    (!ok, List.rev !bad)
  with
  | ok, bad -> Ok (ok, bad)
  | exception Fault.Fault f -> Error f
  | exception Sys_error msg -> Error (Fault.make Fault.Cache_corrupt msg)
