(* Translation-block table: the dispatch-side view of the code cache.
   Each translated block is a node.  Dispatch looks a pc up in the
   thread's jump cache, then in this table, then translates.

   Invalidation is generation-based: flushing the table or restarting
   its counts bumps [generation], which lazily invalidates every
   per-thread jump cache that was filled against the old state. *)

type 'a node = {
  pc : int64;
  mutable body : 'a;  (* the translation dispatch runs *)
  mutable exec_count : int;
  mutable prof_cycles : int;
      (* guest cycles attributed to this block while metrics were on *)
}

type 'a t = { table : (int64, 'a node) Hashtbl.t; mutable generation : int }

(* Real images translate hundreds to thousands of blocks; starting near
   the expected population avoids rehash-and-copy churn on the hottest
   table in the engine. *)
let default_size = 4096

let create ?(size = default_size) () = { table = Hashtbl.create size; generation = 0 }
let generation t = t.generation
let find t pc = Hashtbl.find_opt t.table pc
let length t = Hashtbl.length t.table
let fold f t acc = Hashtbl.fold (fun pc n acc -> f pc n acc) t.table acc

let reset_node n body =
  n.body <- body;
  n.exec_count <- 0;
  n.prof_cycles <- 0

let insert t pc body =
  match Hashtbl.find_opt t.table pc with
  | Some n ->
      (* Retranslation: jump caches holding this node keep pointing at
         the same record, so they see the new body. *)
      reset_node n body;
      n
  | None ->
      let n = { pc; body; exec_count = 0; prof_cycles = 0 } in
      Hashtbl.replace t.table pc n;
      n

let reset_counts t =
  Hashtbl.iter (fun _ n -> reset_node n n.body) t.table;
  t.generation <- t.generation + 1

let flush t =
  Hashtbl.reset t.table;
  t.generation <- t.generation + 1

(* ------------------------------------------------------------------ *)
(* Per-thread direct-mapped jump cache (cf. QEMU's [tb_jmp_cache]): a
   power-of-two array keyed by pc bits, consulted before the global
   hashtable on every dispatch. *)

let jcache_bits = 10
let jcache_slots = 1 lsl jcache_bits

type 'a jcache = { mutable jgen : int; slots : 'a node option array }

let jcache_create t = { jgen = t.generation; slots = Array.make jcache_slots None }

let jcache_slot pc =
  (Int64.to_int pc lxor Int64.to_int (Int64.shift_right_logical pc 12))
  land (jcache_slots - 1)

let jcache_find t jc pc =
  if jc.jgen <> t.generation then begin
    (* Stale: the table was flushed or its counts restarted since this
       cache was filled.  Reset lazily on first use after the bump. *)
    jc.jgen <- t.generation;
    Array.fill jc.slots 0 jcache_slots None;
    None
  end
  else
    match jc.slots.(jcache_slot pc) with
    | Some n as hit when Int64.equal n.pc pc -> hit
    | _ -> None

let jcache_store t jc n =
  if jc.jgen = t.generation then jc.slots.(jcache_slot n.pc) <- Some n
