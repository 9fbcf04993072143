(** A per-database write-ahead log of [(relation, delta)] records.

    Every record carries a strictly increasing sequence number assigned
    at append time; a {!Snapshot} stamped with sequence [s] covers
    exactly the records with [seq <= s], so recovery replays the suffix
    [seq > s] through {!Relalg.Relation.apply}.  Sequences are normally
    dense, but a gap is legal: when a torn append's effect survives in a
    later snapshot, the recovery layer {!reserve}s past the snapshot
    stamp so the replacement record is not shadowed by it.

    On-disk format: a magic line followed by one {!Codec.frame} per
    record (payload: varint seq, string relation, delta).  Reads are
    torn-tail tolerant — a truncated or corrupt {e final} record is the
    normal residue of a crash mid-append and is discarded, not fatal;
    {!open_from} additionally truncates the file back to the valid
    prefix so the next append lands on a clean boundary.  A corrupt
    magic line, by contrast, means the file is not a WAL at all and is
    reported as an error.

    Instrumented with [pdms.wal.{appends,bytes,fsyncs,
    torn_tail_drops}] counters and a [wal.append] span on the optional
    trace ([pdms.wal.replayed] is bumped by the recovery layer, which
    knows which records actually replay). *)

type t

type record = {
  seq : int;
  rel : string;  (** the (stored) relation the delta applies to *)
  delta : Relalg.Relation.Delta.t;
}

val file : dir:string -> string
(** The log's path inside a data directory ([<dir>/wal.log]). *)

type read_result = {
  records : record list;  (** the valid prefix, in append order *)
  valid_bytes : int;  (** offset of the first byte past that prefix *)
  torn_bytes : int;  (** trailing bytes discarded as a torn tail *)
  torn_reason : string option;
}

val read : string -> (read_result, string) result
(** [read path] decodes the log file read-only.  A missing file is an
    empty log; a bad magic line or a non-monotonic sequence number is
    [Error]; a torn tail is tolerated and reported in the result.
    Bumps [pdms.wal.torn_tail_drops] when a tail is dropped. *)

val open_from : dir:string -> read_result -> t
(** [open_from ~dir r] opens (creating if absent) the log in [dir] for
    appending, where [r] is what {!read} just returned for it: any torn
    tail [r] names is truncated away and the writer is positioned at
    the end of the valid prefix.  The file is not read again, so a
    caller can decide from [r] whether to write to it at all. *)

val open_dir : dir:string -> (t * record list, string) result
(** {!read} followed by {!open_from}: the writer and the replayable
    records. *)

val append :
  ?trace:Obs.Trace.t -> ?sync:bool -> t -> rel:string ->
  Relalg.Relation.Delta.t -> int
(** Append one record, returning its sequence number.  The frame is
    flushed to the OS; [sync] (default [false]) additionally fsyncs.
    Bumps [pdms.wal.appends] and [pdms.wal.bytes]. *)

val sync : t -> unit
(** Flush and fsync. Bumps [pdms.wal.fsyncs]. *)

val next_seq : t -> int
(** The sequence number the next {!append} will use. *)

val reserve : t -> int -> unit
(** [reserve t n] ensures the next append uses a sequence [>= n].  Used
    after recovery when a snapshot covers sequences past the WAL's last
    surviving record (its tail was torn after the snapshot was cut):
    appending under a covered sequence would be silently skipped by
    future replays. *)

val size : t -> int
(** Current byte length of the log file (including the magic line). *)

val close : t -> unit
