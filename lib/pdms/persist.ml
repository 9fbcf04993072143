type t = {
  dir : string;
  catalog : Catalog.t;
  db : Relalg.Database.t;
  wal : Storage.Wal.t;
}

let m_replayed = Obs.Metrics.counter "pdms.wal.replayed"

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let init ~dir catalog =
  mkdir_p dir;
  (* A stale WAL would replay on top of the fresh checkpoint, and stale
     snapshots would shadow it: a (re)init empties the directory's
     durability state first. *)
  let wal_file = Storage.Wal.file ~dir in
  if Sys.file_exists wal_file then Sys.remove wal_file;
  List.iter (fun (_, path) -> Sys.remove path) (Storage.Snapshot.list ~dir);
  ignore (Storage.Snapshot.write ~dir ~seq:0 (Pdms_file.render catalog));
  match Storage.Wal.open_dir ~dir with
  | Ok (wal, _) -> Storage.Wal.close wal
  | Error msg -> invalid_arg ("Persist.init: " ^ msg)

(* Replay one WAL suffix onto a freshly parsed catalog; shared by
   recovery and the fsck dry run. *)
let replay_records db ~after records =
  List.fold_left
    (fun acc (r : Storage.Wal.record) ->
      match acc with
      | Error _ as e -> e
      | Ok n ->
          if r.Storage.Wal.seq <= after then Ok n
          else (
            match Relalg.Database.find_opt db r.Storage.Wal.rel with
            | None ->
                Error
                  (Printf.sprintf "WAL record %d targets unknown relation %s"
                     r.Storage.Wal.seq r.Storage.Wal.rel)
            | Some rel -> (
                match Relalg.Relation.apply rel r.Storage.Wal.delta with
                | () -> Ok (n + 1)
                | exception Invalid_argument msg ->
                    Error
                      (Printf.sprintf "WAL record %d does not apply: %s"
                         r.Storage.Wal.seq msg))))
    (Ok 0) records

let recover_catalog ~dir records =
  match Storage.Snapshot.latest ~dir with
  | Error msg -> Error (dir ^ ": " ^ msg)
  | Ok (snap_seq, payload) -> (
      match Pdms_file.parse payload with
      | Error msg -> Error (dir ^ ": snapshot does not parse: " ^ msg)
      | Ok catalog -> (
          let db = Catalog.global_db catalog in
          match replay_records db ~after:snap_seq records with
          | Error msg -> Error (dir ^ ": " ^ msg)
          | Ok replayed -> Ok (catalog, db, snap_seq, replayed)))

(* The WAL is read once, and opened for appending (creating it, or
   truncating a torn tail) only once the directory has recovered: a
   refused directory keeps every file as it was. *)
let open_dir ?(exec = Exec.default) dir =
  Obs.Trace.span exec.Exec.trace "recover" @@ fun () ->
  match Storage.Wal.read (Storage.Wal.file ~dir) with
  | Error msg -> Error msg
  | Ok read -> (
      match recover_catalog ~dir read.Storage.Wal.records with
      | Error _ as e -> e
      | Ok (catalog, db, snap_seq, replayed) ->
          let wal = Storage.Wal.open_from ~dir read in
          (* If the newest snapshot covers sequences past the WAL's last
             surviving record (tail torn after the snapshot was cut),
             appending under a covered sequence would be shadowed on the
             next recovery — skip past the stamp. *)
          Storage.Wal.reserve wal (snap_seq + 1);
          Obs.Metrics.add m_replayed replayed;
          Obs.Trace.attr_i exec.Exec.trace "snapshot.seq" snap_seq;
          Obs.Trace.attr_i exec.Exec.trace "wal.replayed" replayed;
          Ok { dir; catalog; db; wal })

let open_dir_exn ?exec dir =
  match open_dir ?exec dir with
  | Ok t -> t
  | Error msg -> invalid_arg ("Persist.open_dir: " ^ msg)

let catalog t = t.catalog
let db t = t.db

let tee t ~rel delta = ignore (Storage.Wal.append t.wal ~rel delta)

let apply ?exec ?(sync = false) t u =
  Updategram.apply ?exec ~tee:(tee t) t.db u;
  if sync then Storage.Wal.sync t.wal

let snapshot t =
  Storage.Snapshot.write ~dir:t.dir
    ~seq:(Storage.Wal.next_seq t.wal - 1)
    (Pdms_file.render t.catalog)

let sync t = Storage.Wal.sync t.wal
let wal_seq t = Storage.Wal.next_seq t.wal - 1
let wal_size t = Storage.Wal.size t.wal
let close t = Storage.Wal.close t.wal

(* ------------------------------------------------------------------ *)

type fsck_report = {
  dir : string;
  snapshots : int;
  valid_snapshots : int;
  snapshot_seq : int option;
  wal_records : int;
  replayable : int;
  torn_bytes : int;
  errors : string list;
}

let fsck dir =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let snaps = Storage.Snapshot.list ~dir in
  let valid =
    List.filter
      (fun (_, path) ->
        match Storage.Snapshot.load path with
        | Ok _ -> true
        | Error msg ->
            err "invalid snapshot: %s" msg;
            false)
      snaps
  in
  let wal_result = Storage.Wal.read (Storage.Wal.file ~dir) in
  let wal_records, torn_bytes =
    match wal_result with
    | Error msg ->
        err "%s" msg;
        ([], 0)
    | Ok r -> (r.Storage.Wal.records, r.Storage.Wal.torn_bytes)
  in
  let snapshot_seq, replayable =
    match recover_catalog ~dir wal_records with
    | Error msg ->
        err "%s" msg;
        ( (match valid with (seq, _) :: _ -> Some seq | [] -> None), 0 )
    | Ok (_, _, snap_seq, replayed) -> (Some snap_seq, replayed)
  in
  {
    dir;
    snapshots = List.length snaps;
    valid_snapshots = List.length valid;
    snapshot_seq;
    wal_records = List.length wal_records;
    replayable;
    torn_bytes;
    errors = List.rev !errors;
  }

let fsck_ok r = r.errors = []

let render_fsck r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %d snapshot(s), %d valid, newest covers seq %s\n"
       r.dir r.snapshots r.valid_snapshots
       (match r.snapshot_seq with Some s -> string_of_int s | None -> "-"));
  Buffer.add_string b
    (Printf.sprintf "wal: %d record(s), %d replayable past the snapshot%s\n"
       r.wal_records r.replayable
       (if r.torn_bytes > 0 then
          Printf.sprintf ", %d torn tail byte(s) dropped" r.torn_bytes
        else ""));
  List.iter (fun e -> Buffer.add_string b ("error: " ^ e ^ "\n")) r.errors;
  Buffer.add_string b
    (if r.errors = [] then "ok: recovery from this directory will succeed\n"
     else "FAILED\n");
  Buffer.contents b
