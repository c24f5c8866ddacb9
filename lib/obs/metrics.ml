let buckets = 64

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min (buckets - 1) (bits v 0)
  end

type counter = int  (* dense id into each shard's counter array *)
type histogram = int  (* dense id into each shard's histogram array *)
type gauge = { gname : string; cell : int Atomic.t }

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* Registry (names, ids, gauge cells, shard list) under one lock; the
   hot path (add/observe on an already-registered metric) never takes
   it. *)
let guard = Mutex.create ()

let locked f =
  Mutex.lock guard;
  Fun.protect ~finally:(fun () -> Mutex.unlock guard) f

let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let hist_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let counter_names : (int * string) list ref = ref []
let hist_names : (int * string) list ref = ref []
let gauges : gauge list ref = ref []
let ncounters = ref 0
let nhists = ref 0

(* Per-histogram shard layout: [count; sum; bucket 0 .. bucket 63]. *)
let hstride = buckets + 2

(* A domain-local shard.  Arrays are sized for the metrics registered
   when the shard last grew; a write to a fresher id grows them first
   (rare: registration is a startup activity). *)
type shard = { mutable cvals : int array; mutable hvals : int array }

let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      locked (fun () ->
          let s =
            {
              cvals = Array.make (max 16 !ncounters) 0;
              hvals = Array.make (max hstride (!nhists * hstride)) 0;
            }
          in
          shards := s :: !shards;
          s))

let grow_counters s =
  locked (fun () ->
      if !ncounters > Array.length s.cvals then begin
        let fresh = Array.make !ncounters 0 in
        Array.blit s.cvals 0 fresh 0 (Array.length s.cvals);
        s.cvals <- fresh
      end)

let grow_hists s =
  locked (fun () ->
      if !nhists * hstride > Array.length s.hvals then begin
        let fresh = Array.make (!nhists * hstride) 0 in
        Array.blit s.hvals 0 fresh 0 (Array.length s.hvals);
        s.hvals <- fresh
      end)

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counter_ids name with
      | Some id -> id
      | None ->
          let id = !ncounters in
          incr ncounters;
          Hashtbl.replace counter_ids name id;
          counter_names := (id, name) :: !counter_names;
          id)

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt hist_ids name with
      | Some id -> id
      | None ->
          let id = !nhists in
          incr nhists;
          Hashtbl.replace hist_ids name id;
          hist_names := (id, name) :: !hist_names;
          id)

let gauge name =
  locked (fun () ->
      match List.find_opt (fun g -> g.gname = name) !gauges with
      | Some g -> g
      | None ->
          let g = { gname = name; cell = Atomic.make 0 } in
          gauges := g :: !gauges;
          g)

let once register =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some v -> v
    | None ->
        let v = register () in
        Atomic.set cell (Some v);
        v

let add id by =
  if enabled () then begin
    let s = Domain.DLS.get shard_key in
    if id >= Array.length s.cvals then grow_counters s;
    s.cvals.(id) <- s.cvals.(id) + by
  end

let incr id = add id 1

let observe id v =
  if enabled () then begin
    let s = Domain.DLS.get shard_key in
    let off = id * hstride in
    if off + hstride > Array.length s.hvals then grow_hists s;
    s.hvals.(off) <- s.hvals.(off) + 1;
    s.hvals.(off + 1) <- s.hvals.(off + 1) + v;
    let b = bucket_of v in
    s.hvals.(off + 2 + b) <- s.hvals.(off + 2 + b) + 1
  end

let set g v = if enabled () then Atomic.set g.cell v

type hist_snap = { count : int; sum : int; counts : int array }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snap) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  locked (fun () ->
      let counters =
        List.map
          (fun (id, name) ->
            ( name,
              List.fold_left
                (fun acc s ->
                  if id < Array.length s.cvals then acc + s.cvals.(id) else acc)
                0 !shards ))
          !counter_names
        |> List.sort by_name
      in
      let histograms =
        List.map
          (fun (id, name) ->
            let counts = Array.make buckets 0 in
            let count = ref 0 and sum = ref 0 in
            List.iter
              (fun s ->
                let off = id * hstride in
                if off + hstride <= Array.length s.hvals then begin
                  count := !count + s.hvals.(off);
                  sum := !sum + s.hvals.(off + 1);
                  for b = 0 to buckets - 1 do
                    counts.(b) <- counts.(b) + s.hvals.(off + 2 + b)
                  done
                end)
              !shards;
            (name, { count = !count; sum = !sum; counts }))
          !hist_names
        |> List.sort by_name
      in
      let gauges =
        List.map (fun g -> (g.gname, Atomic.get g.cell)) !gauges
        |> List.sort by_name
      in
      { counters; gauges; histograms })

let reset () =
  locked (fun () ->
      List.iter
        (fun s ->
          Array.fill s.cvals 0 (Array.length s.cvals) 0;
          Array.fill s.hvals 0 (Array.length s.hvals) 0)
        !shards;
      List.iter (fun g -> Atomic.set g.cell 0) !gauges)

let find_counter snap name = List.assoc_opt name snap.counters
let find_gauge snap name = List.assoc_opt name snap.gauges
let find_histogram snap name = List.assoc_opt name snap.histograms

let counters_with_prefix snap prefix =
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then
        let suffix =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix)
        in
        Some (suffix, v)
      else None)
    snap.counters

let pp ppf snap =
  Format.fprintf ppf "@[<v>counters:@,";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-36s %d@," name v)
    snap.counters;
  if snap.gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %d@," name v)
      snap.gauges
  end;
  if snap.histograms <> [] then begin
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (name, h) ->
        let mean =
          if h.count = 0 then 0.
          else float_of_int h.sum /. float_of_int h.count
        in
        Format.fprintf ppf "  %-36s count=%d sum=%d mean=%.1f@," name h.count
          h.sum mean;
        Array.iteri
          (fun b n ->
            if n > 0 then
              Format.fprintf ppf "    %-34s %d@,"
                (if b = 0 then "<= 0"
                 else Printf.sprintf "[2^%d, 2^%d)" (b - 1) b)
                n)
          h.counts)
      snap.histograms
  end;
  Format.fprintf ppf "@]"

(* The one shared metrics-dump path for CLI tools (gelf_tool --metrics,
   litmus_run --metrics): snapshot everything — including the engine.* and
   fence.* families — and print the standard [pp] rendering. *)
let dump ?(ppf = Format.std_formatter) () =
  Format.fprintf ppf "%a@." pp (snapshot ())
