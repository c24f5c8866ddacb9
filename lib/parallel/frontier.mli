(** Crash-safe resumable frontier: an append-only on-disk journal of
    per-task verdicts.

    A long sweep (scheme × program refinement cells, generated-corpus
    batches) appends one record per completed task; after a crash —
    including [kill -9] mid-append — reopening the journal recovers
    every fully-written record and truncates the torn tail, so the
    sweep resumes from exactly the completed work.  The design is the
    classic write-ahead journal:

    - {b framing}: each record is a fixed-width ASCII header carrying
      the payload length and its CRC-32, followed by the raw payload —
      binary-safe, grep-friendly, self-delimiting;
    - {b recovery}: on open, records are scanned in order and validated
      against their CRC; the first malformed, short or corrupt record
      ends the valid prefix and the file is truncated back to it (a bit
      flip or torn write costs the tail, never the prefix);
    - {b checkpoints}: {!checkpoint} rewrites the journal compactly
      (one record per key, last wins) through a tmp file and an atomic
      rename, so a crash mid-checkpoint leaves the previous journal
      intact.

    Keys and values are opaque byte strings; the journal does not
    interpret them beyond last-wins deduplication in {!checkpoint}.
    Writers are single-owner: one [t] per file, appends from the owning
    domain only.  Recovery statistics feed the [journal.*] metrics
    ([journal.recovered], [journal.truncated.bytes],
    [journal.appends]). *)

type t

type recovery = {
  entries : (string * string) list;
      (** every valid record, in append order (duplicates preserved) *)
  valid : int;  (** records recovered *)
  dropped_bytes : int;
      (** torn-tail bytes truncated (0 for a clean journal) *)
}

exception Injected_fault of string
(** Raised by {!append} when the chaos hook fires: the record was
    deliberately torn mid-write (header and a partial payload reach the
    file), simulating a crash inside the append.  Recovery drops it. *)

val open_ : ?chaos:(unit -> bool) -> string -> t * recovery
(** Open (creating if missing) the journal at a path, recover its valid
    prefix and truncate any torn tail.  [chaos] is polled once per
    {!append}; when it answers [true] the append is torn and
    {!Injected_fault} raised. *)

type framed
(** One record framed for the journal — header, CRC and payload bytes —
    as {!append_framed} and {!checkpoint_framed} write it.  Framing is
    pure, so a caller can frame records on other domains and hand them
    to the owning domain to write. *)

val frame : key:string -> value:string -> framed

val append_framed : t -> framed -> unit
(** Append one framed record to the journal's buffer.  Records reach
    the OS at the next {!flush}, {!checkpoint} or {!close} (or earlier,
    when the buffer fills): a writer flushes once per batch — the sweep
    once per shard — and a [kill -9] before that loses at most the
    batch's unflushed records, which a resume recomputes.  Keys may
    repeat; recovery preserves append order and {!checkpoint}
    deduplicates last-wins.  A firing chaos hook flushes the records
    buffered before this one, then tears this one. *)

val append : t -> key:string -> value:string -> unit
(** [append t ~key ~value] is [append_framed t (frame ~key ~value)]. *)

val flush : t -> unit
(** Hand every buffered record to the OS. *)

val checkpoint_framed : t -> framed list -> unit
(** Replace the journal's contents with exactly these records
    (deduplicated last-wins by key, first-seen key order), written
    as framed — nothing is re-encoded.  They go to [path ^ ".tmp"],
    which is closed (so a failed final write raises and the journal is
    left as it was) and then renamed over the journal: the rename is
    atomic, so a crash mid-checkpoint leaves the previous journal
    intact.  Nothing is fsync'd, so a power loss may still lose the
    checkpoint.  The journal stays open for further appends. *)

val checkpoint : t -> (string * string) list -> unit
(** [checkpoint t entries] frames each [(key, value)] and
    {!checkpoint_framed}s them. *)

val path : t -> string
val close : t -> unit

(** {1 Reading without ownership} *)

val recover_file : string -> recovery
(** Read-only recovery scan of a journal file (no truncation, no
    lock): what {!open_} would recover.  Missing file = empty
    recovery. *)
