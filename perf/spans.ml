(* The traced run's span recorder.  Spans are taken in perf/ around each
   call into a layer's public function; nothing inside the program is
   instrumented.  Every span adds to its layer's running total, so the
   per-layer numbers cover the whole rep, while only the first [cap]
   leaf spans are kept for the Chrome trace (a kernel-mix rep executes
   millions of blocks).  Group spans are always kept. *)

type acc = { name : string; mutable calls : int; mutable ns : int }

type span = {
  id : int;
  sname : string;
  parent : int;
  rep : int;
  start_ns : int;
  stop_ns : int;
}

type t = {
  origin : int;
  accs : (string, acc) Hashtbl.t;
  mutable order : acc list;  (* creation order, newest first *)
  mutable spans : span list;  (* newest first *)
  mutable kept_leaves : int;
  mutable leaf_calls : int;
  mutable next_id : int;
  mutable current : int;  (* id of the innermost open group, 0 at top *)
  mutable rep : int;
}

(* Leaf spans kept for the Chrome trace. *)
let cap = 20_000

let create () =
  {
    origin = Stat.now_ns ();
    accs = Hashtbl.create 64;
    order = [];
    spans = [];
    kept_leaves = 0;
    leaf_calls = 0;
    next_id = 1;
    current = 0;
    rep = 0;
  }

let set_rep t rep = t.rep <- rep

let acc t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
      let a = { name; calls = 0; ns = 0 } in
      Hashtbl.add t.accs name a;
      t.order <- a :: t.order;
      a

let total_ns t name = match Hashtbl.find_opt t.accs name with Some a -> a.ns | None -> 0

let keep t a ~parent ~start_ns ~stop_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <-
    { id; sname = a.name; parent; rep = t.rep; start_ns; stop_ns } :: t.spans

(* A leaf span the caller timed itself: the hot loops read the clock
   directly instead of allocating a closure per block. *)
let leaf t a ~start_ns ~stop_ns =
  t.leaf_calls <- t.leaf_calls + 1;
  a.calls <- a.calls + 1;
  a.ns <- a.ns + (stop_ns - start_ns);
  if t.kept_leaves < cap then begin
    t.kept_leaves <- t.kept_leaves + 1;
    keep t a ~parent:t.current ~start_ns ~stop_ns
  end

let time t a f =
  let t0 = Stat.now_ns () in
  let r = f () in
  leaf t a ~start_ns:t0 ~stop_ns:(Stat.now_ns ());
  r

(* A structural span: nests the spans opened inside it and is always
   written out. *)
let group t name f =
  let a = acc t name in
  let parent = t.current in
  let id = t.next_id in
  t.next_id <- id + 1;
  t.current <- id;
  let t0 = Stat.now_ns () in
  let finish () =
    let t1 = Stat.now_ns () in
    t.current <- parent;
    a.calls <- a.calls + 1;
    a.ns <- a.ns + (t1 - t0);
    t.spans <-
      { id; sname = name; parent; rep = t.rep; start_ns = t0; stop_ns = t1 }
      :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* Chrome trace_event JSON ("X" complete events), loadable in
   chrome://tracing or Perfetto.  Each event carries its span id, its
   parent's id and the rep; [otherData.layers] holds the full per-layer
   totals, including the leaf spans past the cap. *)
let to_json t =
  let module J = Report.Json in
  let us ns = J.Float (float_of_int (ns - t.origin) /. 1e3) in
  let event s =
    J.Obj
      [
        ("name", J.String s.sname);
        ("cat", J.String "perf");
        ("ph", J.String "X");
        ("ts", us s.start_ns);
        ("dur", J.Float (float_of_int (s.stop_ns - s.start_ns) /. 1e3));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("rep", J.Int s.rep) ]
        );
      ]
  in
  let spans =
    List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) t.spans
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event spans));
      ("displayTimeUnit", J.String "ns");
      ( "otherData",
        J.Obj
          [
            ( "layers",
              J.Obj
                (List.rev_map
                   (fun a ->
                     (a.name, J.Obj [ ("calls", J.Int a.calls); ("ns", J.Int a.ns) ]))
                   t.order) );
            ("leaf_spans_dropped", J.Int (t.leaf_calls - t.kept_leaves));
          ] );
    ]

let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Report.Json.to_string (to_json t)))
