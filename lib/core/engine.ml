let log_src = Logs.Src.create "risotto.engine" ~doc:"Risotto DBT engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Timing, not events: latency histograms stay direct registry writes. *)
let m_translate_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "engine.translate.ns")
let m_compile_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "engine.compile.ns")
let m_block_cycles = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "engine.block.cycles")

type stats = {
  blocks_translated : int;
  blocks_executed : int;
  cache_hits : int;
  lookups : int;
  fences_emitted : int;
  tcg_ops_before_opt : int;
  tcg_ops_after_opt : int;
  chain_hits : int;  (* always 0; kept for perf/dbt.ml until its next edit *)
  jmp_cache_hits : int;
  interp_fallbacks : int;
  traps : int;
  cache_quarantined : int;
  interp_execs : int;
}

(* ------------------------------------------------------------------ *)
(* Lifecycle events.  Every counted thing that happens in the engine is
   one [emit] of one event kind; the table row of that kind decides
   which sinks see it.  Constructors are declared in table order. *)

type event =
  | Translated
  | Executed
  | Jcache_hit
  | Fallback
  | Trapped
  | Cache_quarantined
  | Interp_exec
  | Table_hit
  | Lookup_miss
  | Fences_emitted
  | Ops_before
  | Ops_after
  | Watchdog_fired

(* How an emit moves its counter: by one, or by the emitted int. *)
type tally = Count | Sum

type row = {
  event : event;
  name : string;
      (* the [stats] field, the [engine.stats.<name>] gauge and (dashed)
         the stats-line label *)
  flight : Obs.Flight.kind option;  (* ring event carrying pc and int *)
  level : Logs.level option;
      (* log level; events above [Debug] also become trace instants *)
  tally : tally;
  always : bool;  (* printed by [stats_line] even when zero *)
}

let row ?flight ?level ?(tally = Count) ?(always = false) event name =
  { event; name; flight; level; tally; always }

module Fl = Obs.Flight

let table =
  [|
    row Translated "blocks_translated" ~flight:Fl.Fence_pass ~level:Info ~always:true;
    row Executed "blocks_executed" ~flight:Fl.Block_enter ~level:Debug ~always:true;
    row Jcache_hit "jmp_cache_hits" ~always:true;
    row Fallback "interp_fallbacks" ~flight:Fl.Tier_degraded ~level:Warning ~always:true;
    row Trapped "traps" ~flight:Fl.Trap ~level:Warning ~always:true;
    row Cache_quarantined "cache_quarantined" ~level:Warning ~always:true;
    row Interp_exec "interp_execs" ~always:true;
    row Table_hit "table_hits";
    row Lookup_miss "lookup_misses";
    row Fences_emitted "fences_emitted" ~tally:Sum;
    row Ops_before "tcg_ops_before_opt" ~tally:Sum;
    row Ops_after "tcg_ops_after_opt" ~tally:Sum;
    row Watchdog_fired "watchdogs" ~flight:Fl.Watchdog ~level:Warning;
  |]

(* A constant constructor is the immediate int of its declaration
   position, which the table order mirrors (checked below). *)
let slot (e : event) : int = Obj.magic e

let () = Array.iteri (fun i r -> assert (slot r.event = i)) table
let events = Array.to_list (Array.map (fun r -> r.event) table)
let event_name e = table.(slot e).name
let event_flight e = table.(slot e).flight

(* How the block at a pc executes: natively, or on the TCG interpreter
   because the backend could not compile it. *)
type compiled = Native of Arm.Insn.t array | Interp_only of Tcg.Block.t

type t = {
  config : Config.t;
  image : Image.Gelf.t;
  links : Linker.Link.t;
  frontend : Frontend.t;
  rederive : Frontend.t;
      (* the same frontend with injection disabled: re-translation for
         provenance fires nothing and counts no occurrence *)
  mem : Memsys.Mem.t;
  shared : Arm.Machine.shared;
  tbs : compiled Tbchain.t;
      (* the code cache: every translated block, native or degraded *)
  pinned : (int64, Tcg.Block.t * Tcg.Fence_ledger.t) Hashtbl.t;
      (* optimized TCG and ledger of the blocks an injected fault hit
         while they were translated: re-translation cannot reproduce
         them *)
  loaded : (int64, unit) Hashtbl.t;
      (* pcs whose block came from the persistent cache without this
         engine having translated them: no provenance *)
  inject : Inject.t;
  counts : int array;  (* one counter per event kind, indexed by [slot] *)
  pending_spawns : (int * int64 * int64) Queue.t;  (* tid, entry, arg *)
  next_tid : int ref;
  flight : Obs.Flight.t;
      (* engine-wide flight ring: fallbacks and fence passes —
         lifecycle events not owned by one thread *)
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
  gflight : Obs.Flight.t;  (* this thread's flight ring (single writer) *)
  ienv : Tcg.Interp.env;  (* this thread's interpreter state *)
}

let create ?cost ?idl config image =
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
  {
    config;
    image;
    links;
    frontend = Frontend.create ~inject config image links;
    rederive = Frontend.create ~inject:(Inject.disabled ()) config image links;
    mem;
    shared;
    tbs = Tbchain.create ();
    pinned = Hashtbl.create 16;
    loaded = Hashtbl.create 16;
    inject;
    counts = Array.make (Array.length table) 0;
    pending_spawns;
    next_tid;
    flight = Obs.Flight.create ();
    guest_threads = [];
    postmortem_dir = None;
    postmortems_written = 0;
  }

(* [Log.msg] takes a closure, which allocates whether or not the
   message is printed, so events check the level first.  Levels run
   from App to Debug: a message is reported when its level is at most
   the source's. *)
let reported level =
  match Logs.Src.level log_src with Some max -> level <= max | None -> false

(* The log line and trace instant of an event worth telling (rows with
   a level); cold, so it may allocate. *)
let announce (r : row) level ?why pc arg =
  let name = match r.flight with Some k -> Fl.kind_name k | None -> r.name in
  let suffix = match why with Some w -> ": " ^ w | None -> "" in
  Log.msg level (fun m -> m "%s pc=0x%Lx arg=%d%s" name pc arg suffix);
  if level <> Logs.Debug then
    Obs.Trace.instant ~cat:"engine"
      ~args:(fun () ->
        ("pc", Printf.sprintf "0x%Lx" pc) :: ("arg", string_of_int arg)
        :: (match why with Some w -> [ ("why", w) ] | None -> []))
      name

(* The one sink write per event site: bump the kind's counter, append
   to [ring] (the engine's ring, or the owning thread's), log.  No
   allocation unless the event is logged or, above debug, traced. *)
let emit ?why t ring e pc arg =
  let i = slot e in
  let r : row = table.(i) in
  let c = t.counts in
  (match r.tally with
  | Count -> c.(i) <- c.(i) + 1
  | Sum -> c.(i) <- c.(i) + arg);
  (match r.flight with Some k -> Fl.record ring k pc arg | None -> ());
  match r.level with
  | Some level when reported level || (level <> Logs.Debug && Obs.Trace.enabled ()) ->
      announce r level ?why pc arg
  | Some _ | None -> ()

let count t e = t.counts.(slot e)

let stats t =
  let c = count t in
  let cache_hits = c Jcache_hit + c Table_hit in
  {
    blocks_translated = c Translated;
    blocks_executed = c Executed;
    cache_hits;
    lookups = cache_hits + c Lookup_miss;
    fences_emitted = c Fences_emitted;
    tcg_ops_before_opt = c Ops_before;
    tcg_ops_after_opt = c Ops_after;
    chain_hits = 0;
    jmp_cache_hits = c Jcache_hit;
    interp_fallbacks = c Fallback;
    traps = c Trapped;
    cache_quarantined = c Cache_quarantined;
    interp_execs = c Interp_exec;
  }

(* Every counter by name: the table's rows, then the two dispatch sums
   the [stats] record has always carried. *)
let counters t =
  let s = stats t in
  Array.to_list (Array.map (fun r -> (r.name, t.counts.(slot r.event))) table)
  @ [ ("cache_hits", s.cache_hits); ("lookups", s.lookups) ]

let config t = t.config
let memory t = t.mem
let links t = t.links
let injector t = t.inject
let flight t = t.flight
let thread_flight g = g.gflight
let set_postmortem_dir t dir = t.postmortem_dir <- dir
let postmortem_dir t = t.postmortem_dir
let postmortems_written t = t.postmortems_written

(* The optimized TCG and fence ledger of the block this engine
   translated at [pc], re-derived: translation is deterministic, so the
   frontend (with injection disabled) and the pipeline (observing
   nothing) rebuild exactly what the engine built, and nothing is
   counted twice.  Blocks an injected fault hit keep what was built
   then; blocks loaded from the persistent cache have no provenance. *)
let provenance t pc =
  match Tbchain.find t.tbs pc with
  | None -> None
  | Some _ when Hashtbl.mem t.loaded pc -> None
  | Some _ -> (
      match Hashtbl.find_opt t.pinned pc with
      | Some p -> Some p
      | None ->
          let ledger = Tcg.Fence_ledger.create () in
          let tcg =
            Tcg.Pipeline.run ~ledger ~observe:false t.config.Config.passes
              (Frontend.translate t.rederive pc)
          in
          Some (tcg, ledger))

let fence_ledger t pc = Option.map snd (provenance t pc)

let fence_ledgers t =
  Tbchain.fold (fun pc _ acc -> pc :: acc) t.tbs []
  |> List.sort Int64.compare
  |> List.filter_map (fun pc -> Option.map (fun l -> (pc, l)) (fence_ledger t pc))
let generation t = Tbchain.generation t.tbs
let stack_top tid = Int64.sub 0x8000_0000L (Int64.of_int (tid * 0x10000))

let reset t =
  Obs.Trace.instant ~cat:"engine" "reset";
  (* [flush] bumps the generation, so no per-thread jump cache from
     before the reset can serve a dropped node. *)
  Tbchain.flush t.tbs;
  Hashtbl.reset t.pinned;
  Hashtbl.reset t.loaded

let count_fences t pc code =
  emit t t.flight Fences_emitted pc
    (Array.fold_left
       (fun n i -> match i with Arm.Insn.Dmb _ -> n + 1 | _ -> n)
       0 code)

(* Engine spans and timers around [f x y].  Their closures are built
   only while tracing or metrics are on, so otherwise translating a
   block allocates nothing for them. *)
let spanned name f x y =
  if Obs.Trace.enabled () then Obs.Trace.with_span ~cat:"engine" name (fun () -> f x y)
  else f x y

let timed h f x y =
  if Obs.Metrics.enabled () then Obs.Profile.time (h ()) (fun () -> f x y) else f x y

let backend_compile config tcg = timed m_compile_ns Backend.compile config tcg

(* A block the backend could not compile stays on the TCG interpreter
   for good. *)
let degrade t pc tcg f =
  emit t t.flight Fallback pc (Tbchain.generation t.tbs) ~why:(Fault.to_string f);
  Interp_only tcg

(* The one compile path: backend-compile a block's optimized TCG,
   unless the compile injection fires, into native code — or, on any
   backend fault, leave the block on the TCG interpreter for good.
   Degraded mode keeps the run's semantics (the interpreter and backend
   agree by construction); only this block's speed is lost. *)
let compile t pc tcg =
  if Inject.fire t.inject Inject.Compile then
    degrade t pc tcg (Fault.make ~pc Fault.Backend_fault "injected compile fault")
  else
    match spanned "backend" backend_compile t.config tcg with
    | code ->
        count_fences t pc code;
        Native code
    | exception Fault.Fault f -> degrade t pc tcg (Fault.locate ~pc f)
    | exception Backend.Register_pressure r ->
        degrade t pc tcg
          (Fault.make ~pc Fault.Backend_fault
             (Printf.sprintf "register pressure in block 0x%Lx" r))

(* Translate and compile the block at [pc] into a fresh node.  The
   passes rewrite the frontend's buffer in place, and the optimized ops
   are copied out of it once. *)
let translate_block t pc =
  let fired = Inject.fired t.inject Inject.Decode in
  let draft = spanned "frontend" Frontend.translate_in_place t.frontend pc in
  let ops_before = draft.Frontend.work.Tcg.Work.len in
  (* Provenance is re-derived on demand, except where an injected
     decode fault shaped this translation. *)
  let pin = Inject.fired t.inject Inject.Decode <> fired in
  let ledger = if pin then Some (Tcg.Fence_ledger.create ()) else None in
  Tcg.Pipeline.run_in_place ?ledger t.config.Config.passes draft.Frontend.work;
  let optimized = Frontend.block draft in
  (match ledger with
  | Some l -> Hashtbl.replace t.pinned pc (optimized, l)
  | None -> Hashtbl.remove t.pinned pc);
  Hashtbl.remove t.loaded pc;
  emit t t.flight Translated pc (Tcg.Fenceopt.count optimized.Tcg.Block.ops);
  emit t t.flight Ops_before pc ops_before;
  emit t t.flight Ops_after pc (Tcg.Block.op_count optimized);
  Tbchain.insert t.tbs pc (compile t pc optimized)

let translate t pc =
  if Obs.Trace.enabled () then
    Obs.Trace.with_span ~cat:"engine"
      ~args:(fun () -> [ ("pc", Printf.sprintf "0x%Lx" pc) ])
      "translate"
      (fun () -> timed m_translate_ns translate_block t pc)
  else timed m_translate_ns translate_block t pc

(* The table, then translation: the node at [pc], with the lookup
   recorded in [flight]. *)
let find_or_translate t flight pc =
  match Tbchain.find t.tbs pc with
  | Some n ->
      emit t flight Table_hit pc 0;
      n
  | None ->
      emit t flight Lookup_miss pc 0;
      translate t pc

let fetch t pc = (find_or_translate t t.flight pc).Tbchain.body

let lookup_block t pc =
  match fetch t pc with
  | Native code -> code
  | Interp_only _ ->
      Fault.raise_ ~pc Fault.Backend_fault
        "block is interpreter-only (backend failed to compile it)"

let tcg_block t pc =
  match fetch t pc with
  | Interp_only b -> b
  | Native _ -> (
      match provenance t pc with Some (b, _) -> b | None -> raise Not_found)

let spawn t ~tid ~entry ?(regs = []) () =
  t.next_tid := max !(t.next_tid) (tid + 1);
  let arm = Arm.Machine.create_thread tid in
  arm.Arm.Machine.regs.(X86.Reg.index X86.Reg.RSP) <- stack_top tid;
  List.iter
    (fun (r, v) -> arm.Arm.Machine.regs.(X86.Reg.index r) <- v)
    regs;
  (* Degraded blocks run on the TCG interpreter; helpers
     dispatch through the machine's registry (so syscalls, RMW helpers
     and host calls behave exactly as in native execution). *)
  let helpers name args =
    match Arm.Machine.find_helper t.shared name with
    | Some h -> h t.shared arm args
    | None -> raise (Tcg.Interp.No_helper name)
  in
  let g =
    {
      arm;
      pc = entry;
      finished = false;
      trap = None;
      jcache = Tbchain.jcache_create t.tbs;
      gflight = Obs.Flight.create ();
      ienv = Tcg.Interp.create_env ~helpers t.mem;
    }
  in
  t.guest_threads <- g :: t.guest_threads;
  g

(* Threads created by the guest's clone syscall since the last drain. *)
let rec drain_spawns t =
  if Queue.is_empty t.pending_spawns then []
  else
    let tid, entry, arg = Queue.pop t.pending_spawns in
    let g = spawn t ~tid ~entry ~regs:[ (X86.Reg.RDI, arg) ] () in
    g :: drain_spawns t

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
   ring, how each block runs, the fence ledger of each trapping
   block and the deterministic slice of the metrics registry — as
   compact JSON via {!Report.Json}.  Everything included is a pure
   function of the guest program, config, seed and inject plan (no
   wall-clock values, no histograms), so two identical runs produce
   byte-identical postmortems. *)

let state_name = function
  | Native _ -> "published"
  | Interp_only _ -> "degraded"

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
  let json_of_tier (pc, n) =
    Report.Json.Obj
      [
        ("pc", Report.Json.String (Printf.sprintf "0x%Lx" pc));
        ("state", Report.Json.String (state_name n.Tbchain.body));
        ("execs", Report.Json.Int n.Tbchain.exec_count);
      ]
  in
  let tiers =
    (* Hashtbl fold order is unspecified: sort by pc for a stable
       artifact. *)
    Tbchain.fold (fun pc n acc -> (pc, n) :: acc) t.tbs []
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
    |> List.map json_of_tier
  in
  let trapping_ledgers =
    List.filter_map
      (fun g ->
        match g.trap with
        | Some _ ->
            Option.map (json_of_ledger g.pc) (fence_ledger t g.pc)
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
      ("schema", Report.Json.String "risotto.postmortem.v2");
      ("reason", Report.Json.String reason);
      ("config", Report.Json.String t.config.Config.name);
      ("threads", Report.Json.List (List.map json_of_thread threads));
      ( "engine_events",
        Report.Json.List
          (List.map json_of_event (Obs.Flight.last ~n:last t.flight)) );
      ("tiers", Report.Json.List tiers);
      ( "stats",
        Report.Json.Obj
          (List.map (fun (k, v) -> (k, Report.Json.Int v)) (counters t)) );
      ("fence_ledgers", Report.Json.List trapping_ledgers);
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
  emit t g.gflight Trapped g.pc 0 ~why:(Fault.to_string f);
  g.trap <- Some f;
  g.finished <- true;
  dump_postmortem t ~reason:("trap: " ^ Fault.to_string f)

(* Degraded execution: run the TCG block in the interpreter against
   this thread's pinned state.  Every TCG global lives in the Arm
   register of the same number — 0–15 the guest GP registers, 16/17
   (cmp_a/cmp_b) the lazy flags — so they are copied in and out around
   the block, and a block may set the flags on one tier and branch on
   them on the other.  Block-local temps are written before they are
   read, so the thread's env carries nothing from block to block. *)
let step_interp g b =
  let arm = g.arm and env = g.ienv in
  for r = 0 to Tcg.Op.nb_globals - 1 do
    env.Tcg.Interp.temps.(r) <- arm.Arm.Machine.regs.(r)
  done;
  let res = Tcg.Interp.exec_block env b in
  for r = 0 to Tcg.Op.nb_globals - 1 do
    arm.Arm.Machine.regs.(r) <- env.Tcg.Interp.temps.(r)
  done;
  res

(* Run a block's translation.  The exit comes back in the machine's
   own terms, whichever tier ran it; a helper fault raised
   mid-block escapes as [Fault.Fault]. *)
let exec t g = function
  | Native code -> Arm.Machine.exec_block t.shared g.arm code
  | Interp_only b -> (
      match step_interp g b with
      (* Helpers run mid-block (exit syscall) may halt the thread. *)
      | Tcg.Interp.Next_tb pc ->
          if g.arm.Arm.Machine.halted then Arm.Machine.Halted
          else Arm.Machine.Next_tb pc
      | Tcg.Interp.Jump pc ->
          if g.arm.Arm.Machine.halted then Arm.Machine.Halted
          else Arm.Machine.Jump pc
      | Tcg.Interp.Halted -> Arm.Machine.Halted
      | Tcg.Interp.Trapped (kind, context) ->
          Arm.Machine.Trapped (Arm.Machine.Trap_insn { kind; context }))

(* Dispatch: resolve the thread's pc to a node — the per-thread jump
   cache, then the global table, then translation.  Every dispatch
   counts as a lookup; [cache_hits] counts the ones a fresh translation
   was avoided for, with [jmp_cache_hits] and [table_hits] recording
   which of the two served them. *)
let dispatch t g =
  match Tbchain.jcache_find t.tbs g.jcache g.pc with
  | Some n ->
      emit t g.gflight Jcache_hit g.pc 0;
      n
  | None ->
      let n = find_or_translate t g.gflight g.pc in
      Tbchain.jcache_store t.tbs g.jcache n;
      n

(* Dispatch the thread's next block and count the execution; returns
   the node whose body runs. *)
let enter t g =
  let node = dispatch t g in
  node.Tbchain.exec_count <- node.Tbchain.exec_count + 1;
  (match node.Tbchain.body with
  | Interp_only _ ->
      emit t g.gflight Executed g.pc 0;
      emit t g.gflight Interp_exec g.pc 0
  | Native _ -> emit t g.gflight Executed g.pc 1);
  node

(* Cycle attribution for hot-block ranking is metered: one enabled
   check per dispatch when off.  Guest cycle counting is deterministic,
   so reading it cannot perturb the run. *)
let attribute_cycles node g ~from =
  if Obs.Metrics.enabled () then begin
    let dc = g.arm.Arm.Machine.cycles - from in
    node.Tbchain.prof_cycles <- node.Tbchain.prof_cycles + dc;
    Obs.Metrics.observe (m_block_cycles ()) dc
  end

let leave t g (exit : Arm.Machine.exit_state) =
  match exit with
  | Arm.Machine.Next_tb pc | Arm.Machine.Jump pc -> g.pc <- pc
  | Arm.Machine.Halted ->
      Log.debug (fun m -> m "T%d halted" g.arm.Arm.Machine.tid);
      g.finished <- true
  | Arm.Machine.Trapped tr -> fault_thread t g (fault_of_machine_trap g.pc tr)

let step_block t g =
  if not g.finished then
    match enter t g with
    | exception Fault.Fault f -> fault_thread t g f
    | node -> (
        let from = g.arm.Arm.Machine.cycles in
        match exec t g node.Tbchain.body with
        | exit ->
            attribute_cycles node g ~from;
            leave t g exit
        | exception Fault.Fault f ->
            attribute_cycles node g ~from;
            fault_thread t g f)

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
  (* Built once, so that a round allocates nothing. *)
  let step g =
    if not g.finished then begin
      incr n;
      step_block t g;
      if g.finished then decr live
    end
  in
  while !live > 0 && !n < max_blocks do
    Queue.iter step all;
    List.iter add (drain_spawns t)
  done;
  let threads = List.of_seq (Queue.to_seq all) in
  if !live = 0 then Completed threads
  else begin
    List.iter
      (fun g -> if not g.finished then emit t g.gflight Watchdog_fired g.pc !n)
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

(* Hottest translated blocks, ranked by attributed guest cycles (when
   metrics were on), then by execution count. *)
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
          }
          :: acc)
      t.tbs []
  in
  Obs.Profile.rank ?limit entries

(* One-line run summary for CLIs: guest cycles, then every table row
   under its dashed name.  Rows marked [always] print even at zero (so a
   clean run says [interp-fallbacks=0] rather than nothing); the rest
   only when they happened. *)
let stats_line t g =
  let b = Buffer.create 256 in
  Printf.bprintf b "cycles=%d" g.arm.Arm.Machine.cycles;
  Array.iter
    (fun r ->
      let v = t.counts.(slot r.event) in
      if r.always || v > 0 then
        Printf.bprintf b " %s=%d" (String.map (function '_' -> '-' | c -> c) r.name) v)
    table;
  Buffer.contents b

let publish_metrics t =
  if Obs.Metrics.enabled () then
    List.iter
      (fun (name, v) -> Obs.Metrics.set (Obs.Metrics.gauge ("engine.stats." ^ name)) v)
      (counters t)

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
   [stats.cache_quarantined], and the
   block simply retranslates on first execution.  Structural damage —
   bad magic, truncation, a config mismatch, an unparsable frame
   header — still fails the whole file, because nothing after the
   damage can be trusted to be aligned. *)

let cache_magic = "RSTC2\n"

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
    let quarantined = ref [] in
    let on_entry i pc = function
      | Ok code ->
          if Inject.fire t.inject Inject.Cache_read then
            Fault.raise_ Fault.Cache_corrupt
              (Printf.sprintf "injected cache-read fault at entry %d" i)
          else Hashtbl.replace staged pc code
      | Error reason ->
          quarantined :=
            (pc, Printf.sprintf "cache %s entry %d: %s" path i reason)
            :: !quarantined
    in
    let _count =
      parse_cache ~config:t.config.Config.name ~on_entry s
    in
    (staged, List.rev !quarantined)
  with
  | staged, quarantined ->
      (* Restart every surviving node's counters, so hot-block ranking
         starts over, and bump the generation, so per-thread jump
         caches refill, before installing the staged blocks. *)
      Tbchain.reset_counts t.tbs;
      Hashtbl.iter
        (fun pc code ->
          (* A block this engine translated keeps its provenance: the
             cache is bound to the same config, so re-translation still
             derives what the loaded code was compiled from. *)
          if Option.is_none (Tbchain.find t.tbs pc) then Hashtbl.replace t.loaded pc ();
          ignore (Tbchain.insert t.tbs pc (Native code)))
        staged;
      List.iter
        (fun (pc, why) -> emit t t.flight Cache_quarantined pc 0 ~why)
        quarantined;
      Obs.Trace.instant ~cat:"engine"
        ~args:(fun () ->
          [
            ("blocks", string_of_int (Hashtbl.length staged));
            ("quarantined", string_of_int (List.length quarantined));
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
