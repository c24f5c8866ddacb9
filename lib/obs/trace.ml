type event = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  dom : int;
  args : (string * string) list;
}

let dummy =
  { name = ""; cat = ""; ts_us = 0.; dur_us = 0.; dom = 0; args = [] }

(* One ring per domain: records are domain-local, so the hot path never
   locks.  [n] counts every write; the live window is the last
   [min n cap] slots.  [rgen] ties the ring to the {!enable} call it
   was built under — [enable] empties the registry and bumps the
   generation, so stale rings left in a domain's DLS slot are rebuilt
   (and re-registered) on their next record. *)
type ring = { rdom : int; rgen : int; cap : int; mutable n : int; evs : event array }

let on = Atomic.make false
let enabled () = Atomic.get on

(* Everything off the hot path (ring registry, capacity, epoch) is
   guarded by [guard]. *)
let guard = Mutex.create ()
let rings : ring list ref = ref []
let capacity = ref 65536
let generation = ref 0
let epoch = ref 0.

let locked f =
  Mutex.lock guard;
  Fun.protect ~finally:(fun () -> Mutex.unlock guard) f

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let fresh_ring () =
  locked (fun () ->
      let r =
        {
          rdom = (Domain.self () :> int);
          rgen = !generation;
          cap = !capacity;
          n = 0;
          evs = Array.make (max 1 !capacity) dummy;
        }
      in
      rings := r :: !rings;
      r)

let ring_key : ring Domain.DLS.key = Domain.DLS.new_key fresh_ring

let record ev =
  let r = Domain.DLS.get ring_key in
  let r =
    if r.rgen = !generation then r
    else begin
      let r = fresh_ring () in
      Domain.DLS.set ring_key r;
      r
    end
  in
  r.evs.(r.n mod r.cap) <- ev;
  r.n <- r.n + 1

let begin_span ?(cat = "risotto") name =
  if enabled () then Some (name, cat, now_us ()) else None

let force_args = function None -> [] | Some f -> f ()

let end_span ?args = function
  | None -> ()
  | Some (name, cat, t0) ->
      let t1 = now_us () in
      record
        {
          name;
          cat;
          ts_us = t0;
          dur_us = t1 -. t0;
          dom = (Domain.self () :> int);
          args = force_args args;
        }

let with_span ?(cat = "risotto") ?args name f =
  if not (enabled ()) then f ()
  else begin
    let s = begin_span ~cat name in
    Fun.protect ~finally:(fun () -> end_span ?args s) f
  end

let instant ?(cat = "risotto") ?args name =
  if enabled () then
    record
      {
        name;
        cat;
        ts_us = now_us ();
        (* Negative sentinel: a span whose body ran under the clock
           resolution legitimately has [dur_us = 0.] and must still be
           emitted as a complete span, not an instant. *)
        dur_us = -1.;
        dom = (Domain.self () :> int);
        args = force_args args;
      }

let clear () =
  locked (fun () ->
      List.iter
        (fun r ->
          r.n <- 0;
          Array.fill r.evs 0 (Array.length r.evs) dummy)
        !rings)

let enable ?(limit = 65536) () =
  locked (fun () ->
      capacity := max 1 limit;
      epoch := Unix.gettimeofday ();
      (* Empty the registry and bump the generation: every domain's DLS
         ring is now stale and will be rebuilt (at the new capacity)
         the first time that domain records. *)
      rings := [];
      incr generation);
  Atomic.set on true

let disable () = Atomic.set on false

let ring_events r =
  let live = min r.n r.cap in
  (* Oldest first: once wrapped, the window starts at [n mod cap]. *)
  List.init live (fun i ->
      if r.n <= r.cap then r.evs.(i) else r.evs.((r.n + i) mod r.cap))

let events () =
  locked (fun () -> List.concat_map ring_events !rings)
  |> List.stable_sort (fun a b -> compare a.ts_us b.ts_us)

let dropped () =
  locked (fun () ->
      List.fold_left (fun acc r -> acc + max 0 (r.n - r.cap)) 0 !rings)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_event b ev =
  Buffer.add_string b "{\"name\":\"";
  escape b ev.name;
  Buffer.add_string b "\",\"cat\":\"";
  escape b ev.cat;
  Buffer.add_string b "\",\"ph\":";
  Buffer.add_string b (if ev.dur_us < 0. then "\"i\",\"s\":\"t\"" else "\"X\"");
  Buffer.add_string b (Printf.sprintf ",\"ts\":%.3f" ev.ts_us);
  if ev.dur_us >= 0. then
    Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" ev.dur_us);
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d" ev.dom);
  (match ev.args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":\"";
          escape b v;
          Buffer.add_char b '"')
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_json () =
  let evs = events () in
  let b = Buffer.create (4096 + (128 * List.length evs)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      add_event b ev)
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let write path =
  let evs = events () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ()));
  List.length evs
