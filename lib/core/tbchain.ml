(* Translation-block chain table: the dispatch-side view of the code
   cache.  Each translated block is a node; static exits resolved once
   are patched into edges so later executions jump block-to-block
   without a hashtable lookup, QEMU-style.

   Invalidation is generation-based: flushing or clearing links bumps
   [generation], which lazily invalidates every per-thread jump cache
   and pending chained target that was built against the old state. *)

type 'a node = {
  pc : int64;
  mutable body : 'a;  (* the original translation of the block *)
  mutable active : 'a;  (* what dispatch executes: body or a superblock *)
  mutable exec_count : int;
  mutable edges : 'a edge list;  (* patched static exits, at most one per pc *)
  mutable super_len : int;  (* number of stitched blocks; 0 = no superblock *)
  mutable no_super : bool;  (* superblock formation failed; do not retry *)
  mutable prof_cycles : int;
      (* guest cycles attributed to this block while metrics were on *)
  tier : Tier.profile;
      (* tier-ladder state + observed-successor profile (see Tier) *)
}

and 'a edge = { epc : int64; target : 'a node }

type 'a t = {
  table : (int64, 'a node) Hashtbl.t;
  chain : bool;
  mutable generation : int;
}

(* Real images translate hundreds to thousands of blocks; starting near
   the expected population avoids rehash-and-copy churn on the hottest
   table in the engine. *)
let default_size = 4096

let create ?(size = default_size) ~chain () =
  { table = Hashtbl.create size; chain; generation = 0 }

let chaining t = t.chain
let generation t = t.generation
let find t pc = Hashtbl.find_opt t.table pc
let length t = Hashtbl.length t.table
let fold f t acc = Hashtbl.fold (fun pc n acc -> f pc n acc) t.table acc
let iter f t = Hashtbl.iter f t.table

let reset_node n body =
  n.body <- body;
  n.active <- body;
  n.exec_count <- 0;
  n.edges <- [];
  n.super_len <- 0;
  n.no_super <- false;
  n.prof_cycles <- 0;
  Tier.reset n.tier

let insert t pc body =
  match Hashtbl.find_opt t.table pc with
  | Some n ->
      (* Retranslation: existing edges into this node keep pointing at
         the same record, so patched jumps see the new body. *)
      reset_node n body;
      n
  | None ->
      let n =
        {
          pc;
          body;
          active = body;
          exec_count = 0;
          edges = [];
          super_len = 0;
          no_super = false;
          prof_cycles = 0;
          tier = Tier.fresh ();
        }
      in
      Hashtbl.replace t.table pc n;
      n

(* A block has at most two static exits (the two arms of a Jcc). *)
let max_edges = 2

let link t from ~epc target =
  if
    t.chain
    && (not (List.exists (fun e -> Int64.equal e.epc epc) from.edges))
    && List.length from.edges < max_edges
  then begin
    from.edges <- { epc; target } :: from.edges;
    true
  end
  else false

let follow from pc =
  let rec go = function
    | [] -> None
    | e :: rest -> if Int64.equal e.epc pc then Some e.target else go rest
  in
  go from.edges

let install_super n active ~len =
  n.active <- active;
  n.super_len <- len;
  (* Old edges were keyed by the plain body's exit pcs; the superblock
     has its own set of side exits. *)
  n.edges <- []

let clear_links t =
  Hashtbl.iter
    (fun _ n ->
      n.edges <- [];
      n.active <- n.body;
      n.exec_count <- 0;
      n.super_len <- 0;
      n.no_super <- false;
      n.prof_cycles <- 0;
      Tier.reset n.tier)
    t.table;
  t.generation <- t.generation + 1

let flush t =
  Hashtbl.reset t.table;
  t.generation <- t.generation + 1

let edge_count t =
  fold (fun _ n acc -> acc + List.length n.edges) t 0

(* ------------------------------------------------------------------ *)
(* Per-thread direct-mapped jump cache (cf. QEMU's [tb_jmp_cache]): a
   power-of-two array keyed by pc bits, consulted before the global
   hashtable on unchained exits. *)

let jcache_bits = 10
let jcache_slots = 1 lsl jcache_bits

type 'a jcache = { mutable jgen : int; slots : 'a node option array }

let jcache_create t = { jgen = t.generation; slots = Array.make jcache_slots None }

let jcache_slot pc =
  (Int64.to_int pc lxor Int64.to_int (Int64.shift_right_logical pc 12))
  land (jcache_slots - 1)

let jcache_find t jc pc =
  if jc.jgen <> t.generation then begin
    (* Stale: the table was flushed or relinked since this cache was
       filled.  Reset lazily on first use after the bump. *)
    jc.jgen <- t.generation;
    Array.fill jc.slots 0 jcache_slots None;
    None
  end
  else
    match jc.slots.(jcache_slot pc) with
    | Some n when Int64.equal n.pc pc -> Some n
    | _ -> None

let jcache_store t jc n =
  if jc.jgen = t.generation then jc.slots.(jcache_slot n.pc) <- Some n
