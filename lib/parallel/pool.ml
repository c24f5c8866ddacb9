type fault = { index : int; exn : exn; backtrace : string }

exception Task_failed of fault

let () =
  Printexc.register_printer (function
    | Task_failed f ->
        Some
          (Printf.sprintf "task %d failed: %s" f.index
             (Printexc.to_string f.exn))
    | _ -> None)

type chunk_stat = { c_domain : int; c_start : int; c_len : int; c_us : float }

(* A batch of tasks being distributed.  Scheduling is chunked: workers
   steal whole (start, len) slices from [next] rather than single task
   indices, so the per-task cost is amortised over the chunk and a
   domain that lands a cheap slice simply comes back for another.  The
   worker completing the last chunk ([remaining] hitting 0) signals the
   submitter.  [gen] lets a worker tell a fresh batch from the one it
   already drained. *)
type batch = {
  gen : int;
  run : int -> unit;  (* must not raise *)
  chunks : (int * int) array;  (* (start, len) slices of the task array *)
  next : int Atomic.t;  (* next chunk to steal *)
  remaining : int Atomic.t;  (* chunks outstanding *)
  stats : chunk_stat option array;  (* one slot per chunk, owner-written *)
  fault : fault option Atomic.t;  (* the first exception a drain let out *)
}

type t = {
  jobs : int;  (* requested parallelism (the [-j] figure) *)
  spawned : int;  (* worker domains actually running *)
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  have_work : Condition.t;
  finished : Condition.t;
  mutable batch : batch option;
  mutable gen : int;
  mutable stopped : bool;
  mutable last_stats : chunk_stat list;  (* previous parallel batch *)
  submit : Mutex.t;  (* serialises concurrent [map] calls *)
}

(* True while this domain is executing pool tasks or submitting a batch:
   a nested [map] must run sequentially instead of deadlocking on
   [submit] or starving the batch it is part of. *)
let busy : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

(* Pool utilization: tasks are counted in the worker that ran them
   (the sharded registry merges them on snapshot), drain spans show
   each worker's busy window per batch, and the batch-size histogram
   plus the jobs gauge give the denominator for utilization. *)
let m_tasks = Obs.Metrics.once (fun () -> Obs.Metrics.counter "pool.tasks")
let m_batches = Obs.Metrics.once (fun () -> Obs.Metrics.counter "pool.batches")
let m_batch_tasks = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "pool.batch.tasks")
let m_chunks = Obs.Metrics.once (fun () -> Obs.Metrics.counter "pool.chunks")
let m_drain_ns = Obs.Metrics.once (fun () -> Obs.Metrics.histogram "pool.drain.ns")
let m_jobs = Obs.Metrics.once (fun () -> Obs.Metrics.gauge "pool.jobs")

(* Aim for ~4 chunks per draining domain: coarse enough that the
   steal/bookkeeping cost disappears into the chunk, fine enough that
   one slow slice can be rebalanced by idle domains stealing the
   rest. *)
let plan_chunks ~drainers n =
  let size = max 1 (n / (max 1 drainers * 4)) in
  let nchunks = (n + size - 1) / size in
  Array.init nchunks (fun i ->
      let start = i * size in
      (start, min size (n - start)))

(* [b.run] cannot raise, but the instrumentation around it can (in
   OCaml 5, e.g., forcing a lazy value another domain is still forcing
   raises [CamlinternalLazy.Undefined]).  An exception that killed a
   worker holding a chunk would leave [remaining] above 0, and [map]
   would wait on [finished] forever.  So whatever escapes a chunk
   becomes the batch's fault, recorded before the chunk counts as done,
   and [map] fails the tasks the chunk did not run. *)
let fail b exn =
  let backtrace = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
  ignore (Atomic.compare_and_set b.fault None (Some { index = -1; exn; backtrace }))

(* Run chunks until none is left to steal.  Never raises. *)
let steal t b =
  let nchunks = Array.length b.chunks in
  let dom = (Domain.self () :> int) in
  let run_chunk c =
    let start, len = b.chunks.(c) in
    let t0 = Obs.Profile.now_us () in
    for i = start to start + len - 1 do
      b.run i;
      Obs.Metrics.incr (m_tasks ())
    done;
    b.stats.(c) <-
      Some
        {
          c_domain = dom;
          c_start = start;
          c_len = len;
          c_us = Obs.Profile.now_us () -. t0;
        };
    Obs.Metrics.incr (m_chunks ())
  in
  let rec go () =
    let c = Atomic.fetch_and_add b.next 1 in
    if c < nchunks then begin
      (try run_chunk c with exn -> fail b exn);
      (* The plain [stats] write above, and a fault, are published to
         the submitter by this decrement (it only reads them once
         [remaining] hits 0). *)
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.finished;
        Mutex.unlock t.m
      end;
      go ()
    end
  in
  go ()

(* Outside its chunks a drain holds no task, so an exception there
   loses nothing: the domain records it and steals what is left. *)
let drain t b =
  try
    Obs.Trace.with_span ~cat:"pool" "drain" (fun () ->
        Obs.Profile.time (m_drain_ns ()) (fun () -> steal t b))
  with exn ->
    fail b exn;
    steal t b

let worker t =
  let flag = Domain.DLS.get busy in
  flag := true;
  let last = ref 0 in
  let rec loop () =
    Mutex.lock t.m;
    let rec await () =
      if t.stopped then None
      else
        match t.batch with
        | Some b when b.gen <> !last -> Some b
        | _ ->
            Condition.wait t.have_work t.m;
            await ()
    in
    let next = await () in
    Mutex.unlock t.m;
    match next with
    | None -> ()
    | Some b ->
        last := b.gen;
        drain t b;
        loop ()
  in
  loop ()

let create ?jobs ?(force_spawn = false) () =
  let jobs =
    match jobs with
    | Some j -> max 1 j
    | None -> Domain.recommended_domain_count ()
  in
  (* On OCaml 5, every live domain participates in each stop-the-world
     minor collection — on a machine with fewer cores than [jobs], even
     a *parked* surplus domain slows allocation-heavy tasks measurably
     (~3x on one core).  So never spawn beyond what the runtime
     recommends; the caller still drains, so a [-j 2] pool on a 1-core
     box is the chunked engine minus the extra domains.  [force_spawn]
     overrides the cap for tests that need real cross-domain traffic. *)
  let cap =
    if force_spawn then jobs
    else min jobs (Domain.recommended_domain_count ())
  in
  let spawned = max 0 (cap - 1) in
  let t =
    {
      jobs;
      spawned;
      workers = [];
      m = Mutex.create ();
      have_work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      gen = 0;
      stopped = false;
      last_stats = [];
      submit = Mutex.create ();
    }
  in
  t.workers <- List.init spawned (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs
let workers_spawned t = t.spawned
let batch_stats t = t.last_stats

let shutdown t =
  Mutex.lock t.m;
  t.stopped <- true;
  Condition.broadcast t.have_work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let run_task f arr results i =
  let r =
    try Ok (f arr.(i))
    with exn ->
      let backtrace =
        Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
      in
      Error { index = i; exn; backtrace }
  in
  results.(i) <- Some r

let map_seq f xs =
  List.mapi
    (fun index x ->
      try Ok (f x)
      with exn ->
        let backtrace =
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        in
        Error { index; exn; backtrace })
    xs

let map t f xs =
  let n = List.length xs in
  let flag = Domain.DLS.get busy in
  if t.jobs <= 1 || n <= 1 || t.stopped || !flag then map_seq f xs
  else begin
    let arr = Array.of_list xs in
    let results = Array.make n None in
    let chunks = plan_chunks ~drainers:(t.spawned + 1) n in
    let b_fault = Atomic.make None in
    Obs.Metrics.incr (m_batches ());
    Obs.Metrics.observe (m_batch_tasks ()) n;
    Obs.Metrics.set (m_jobs ()) t.jobs;
    Obs.Trace.instant ~cat:"pool"
      ~args:(fun () ->
        [
          ("tasks", string_of_int n);
          ("chunks", string_of_int (Array.length chunks));
        ])
      "submit";
    flag := true;
    Fun.protect
      ~finally:(fun () -> flag := false)
      (fun () ->
        Mutex.lock t.submit;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.submit)
          (fun () ->
            Mutex.lock t.m;
            t.gen <- t.gen + 1;
            let b =
              {
                gen = t.gen;
                run = run_task f arr results;
                chunks;
                next = Atomic.make 0;
                remaining = Atomic.make (Array.length chunks);
                stats = Array.make (Array.length chunks) None;
                fault = b_fault;
              }
            in
            t.batch <- Some b;
            Condition.broadcast t.have_work;
            Mutex.unlock t.m;
            (* The caller is a worker too. *)
            drain t b;
            Mutex.lock t.m;
            while Atomic.get b.remaining > 0 do
              Condition.wait t.finished t.m
            done;
            t.batch <- None;
            Mutex.unlock t.m;
            t.last_stats <-
              Array.to_list b.stats
              |> List.filter_map (fun s -> s)));
    List.init n (fun index ->
        match (results.(index), Atomic.get b_fault) with
        | Some r, _ -> r
        | None, Some f -> Error { f with index }
        | None, None -> assert false (* every task ran, or a drain faulted *))
  end

let reraise_first results =
  List.map
    (function
      | Ok y -> y
      | Error f ->
          (* Mirror the sequential path: surface the original exception. *)
          raise f.exn)
    results

let map_exn t f xs = reraise_first (map t f xs)

let map_list ?pool f xs =
  match pool with None -> List.map f xs | Some t -> map_exn t f xs

let with_pool ?jobs ?force_spawn f =
  let t = create ?jobs ?force_spawn () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
