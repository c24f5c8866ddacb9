(** QCheck-driven litmus program generator with shape canonicalization.

    The hand-written mapping corpus ({!Catalog.mapping_corpus}) has 16
    programs; the generator scales refinement sweeps to 10⁴+
    well-formed x86 litmus programs — plain loads/stores, MFENCEs and
    x86 CASes over up to three shared locations — the way Chakraborty
    scales mapping evidence with litmus batteries.  Generation is
    seeded and deterministic: the same [seed] and [n] always produce
    the same programs, on every machine, so a CI failure is
    reproducible from the numbers in the log alone.

    Generated programs are {e shapes} more often than they are novel:
    renaming locations or registers, or swapping whole threads, yields
    a program with an isomorphic behaviour set under every model.
    {!canonical} normalises all three (best thread permutation ×
    first-occurrence renaming, lexicographically smallest rendering),
    its CRC-32 names the class, and {!corpus} dedups a generated
    batch into canonical classes with multiplicities. *)

(** Generation bounds.  The defaults keep the candidate-execution space
    of every generated program litmus-sized (the enumerator is
    exponential in reads and writes-per-location): 2–3 threads, ≤ 3
    shared locations, ≤ [max_instrs] instructions per thread, at most
    [max_reads] loads+CASes per program and [max_writes_per_loc]
    non-init writes per location (excess instructions are dropped
    deterministically). *)
type config = {
  max_threads : int;  (** 2 or 3 *)
  max_locs : int;  (** ≤ 3 *)
  max_instrs : int;  (** per thread *)
  max_reads : int;  (** program-wide loads+CASes *)
  max_writes_per_loc : int;  (** non-init writes per location *)
  cas_weight : int;  (** relative frequency of CAS vs load/store *)
  fence_weight : int;  (** relative frequency of MFENCE *)
}

val default_config : config

(** The underlying program generator (for QCheck properties). *)
val gen : ?config:config -> Ast.prog QCheck.Gen.t

(** [generate ~seed n] is the deterministic batch: programs are named
    [gen-<i>] in generation order. *)
val generate : ?config:config -> seed:int -> int -> Ast.prog list

(** The canonical representative of a program's shape class: threads
    reordered, locations and registers renamed to first-occurrence
    [l0, l1, …] / [r0, r1, …], the permutation chosen to minimise the
    serialized rendering.  Canonically-equal programs have isomorphic
    behaviour sets under every model (renaming and thread order are
    semantically inert), so one verdict serves the class. *)
val canonical : Ast.prog -> Ast.prog

(** The canonical rendering {!canonical} minimises. *)
val canonical_string : Ast.prog -> string

(** One shape class of a generated batch: [cls_name] is
    [gen-<index>-<hash>] (first-occurrence index keeps names unique
    even on CRC collisions), [cls_rep] the canonical representative
    (its [name] is [cls_name]), [cls_count] the number of generated
    programs that collapsed into the class. *)
type cls = {
  cls_name : string;
  cls_rep : Ast.prog;
  cls_hash : int32;
  cls_count : int;
}

type corpus = {
  seed : int;
  requested : int;  (** programs generated before dedup *)
  classes : cls list;  (** first-occurrence order *)
}

(** Generate [n] programs and dedup them into shape classes. *)
val corpus : ?config:config -> seed:int -> int -> corpus

(** [1 - classes/programs]: the fraction of generated programs served
    by another program's verdict. *)
val dedup_ratio : corpus -> float
