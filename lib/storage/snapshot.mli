(** Full-state checkpoint files for a data directory.

    A snapshot is an opaque payload (the {!Pdms} layer uses the
    [Pdms_file] rendering of a whole catalog) stamped with the WAL
    sequence number it covers: recovery loads the newest {e valid}
    snapshot and replays only the WAL records with a larger sequence
    number.

    Files are named [snapshot-<seq>.snap] and written atomically — the
    bytes go to a temp file in the same directory, are fsynced, and the
    file is renamed into place — so a crash mid-checkpoint leaves at
    worst a stray temp file, never a half-written snapshot under the
    real name.  Contents are one {!Codec.frame} (payload: varint seq +
    string payload) behind a magic line, so corruption is detected by
    CRC and a corrupt newest snapshot silently falls back to the next
    older one.

    The magic line names the format version ([REVERE-SNAP 2]). Format 2
    escapes line breaks and backslashes inside quoted row values, which
    format 1 wrote verbatim, so a format 1 payload could recover
    different bytes. A snapshot of any other format is refused with an
    error naming it, never skipped: recovery does not fall back past
    it, and a directory written in format 1 must be re-initialised.

    Bumps [pdms.wal.snapshots] per snapshot written. *)

val write : dir:string -> seq:int -> string -> string
(** [write ~dir ~seq payload] checkpoints [payload] as covering WAL
    records [<= seq]; returns the path written. *)

val latest : dir:string -> (int * string, string) result
(** The newest snapshot (by covered sequence) that passes its checksum,
    as [(seq, payload)]. [Error] if the directory holds no valid
    snapshot, or if the search meets a snapshot of another format
    before a valid one. *)

val load_latest : dir:string -> (int * string) option
(** {!latest} without the reason. *)

val list : dir:string -> (int * string) list
(** All snapshot files as [(seq, path)], newest first, without
    validating their contents. *)

val load : string -> (int * string, string) result
(** Decode one snapshot file as [(seq, payload)]; a snapshot of another
    format is an [Error]. *)
