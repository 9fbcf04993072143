type t = {
  path : string;
  oc : out_channel;
  fd : Unix.file_descr;
  mutable next : int;  (* sequence number of the next append *)
  mutable bytes : int;  (* current file length *)
}

type record = { seq : int; rel : string; delta : Relalg.Relation.Delta.t }

let magic = "REVERE-WAL 1\n"

let file ~dir = Filename.concat dir "wal.log"

let m_appends = Obs.Metrics.counter "pdms.wal.appends"
let m_bytes = Obs.Metrics.counter "pdms.wal.bytes"
let m_fsyncs = Obs.Metrics.counter "pdms.wal.fsyncs"
let m_torn = Obs.Metrics.counter "pdms.wal.torn_tail_drops"

type read_result = {
  records : record list;
  valid_bytes : int;
  torn_bytes : int;
  torn_reason : string option;
}

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decode_record payload =
  let r = Codec.reader payload in
  let seq = Codec.read_varint r in
  let rel = Codec.read_string r in
  let delta = Codec.read_delta r in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing record bytes");
  { seq; rel; delta }

let read path =
  if not (Sys.file_exists path) then
    Ok { records = []; valid_bytes = 0; torn_bytes = 0; torn_reason = None }
  else
    let s = read_all path in
    let mlen = String.length magic in
    if String.length s < mlen then begin
      (* Too short to even hold the magic: a torn creation write. *)
      if String.length s > 0 then Obs.Metrics.incr m_torn;
      Ok
        {
          records = [];
          valid_bytes = 0;
          torn_bytes = String.length s;
          torn_reason =
            (if String.length s > 0 then Some "truncated magic line" else None);
        }
    end
    else if String.sub s 0 mlen <> magic then
      Error (path ^ ": not a WAL file (bad magic line)")
    else
      let rec go acc prev_seq pos =
        match Codec.read_frame s pos with
        | Codec.End ->
            Ok
              {
                records = List.rev acc;
                valid_bytes = pos;
                torn_bytes = 0;
                torn_reason = None;
              }
        | Codec.Torn why ->
            Obs.Metrics.incr m_torn;
            Ok
              {
                records = List.rev acc;
                valid_bytes = pos;
                torn_bytes = String.length s - pos;
                torn_reason = Some why;
              }
        | Codec.Frame (payload, next) -> (
            match decode_record payload with
            | rec_ ->
                (* Strictly increasing, not dense: a gap is the legal
                   residue of a torn append whose effect survives in a
                   later snapshot (the writer reserves past the snapshot
                   stamp on recovery).  A non-increase is corruption. *)
                if rec_.seq <= prev_seq then
                  Error
                    (Printf.sprintf
                       "%s: non-increasing sequence (record %d follows %d)"
                       path rec_.seq prev_seq)
                else go (rec_ :: acc) rec_.seq next
            | exception Codec.Corrupt why ->
                (* The frame checksum held but the payload didn't decode:
                   treat like a torn tail only if nothing follows —
                   mid-log corruption under a valid CRC is a bug, not a
                   crash artefact. *)
                (match Codec.read_frame s next with
                | Codec.End ->
                    Obs.Metrics.incr m_torn;
                    Ok
                      {
                        records = List.rev acc;
                        valid_bytes = pos;
                        torn_bytes = String.length s - pos;
                        torn_reason = Some why;
                      }
                | _ ->
                    Error
                      (Printf.sprintf "%s: corrupt interior record %d (%s)"
                         path (prev_seq + 1) why)))
      in
      go [] 0 mlen

let open_from ~dir r =
  let path = file ~dir in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  let valid =
    if r.valid_bytes = 0 then begin
      (* Fresh file, or one whose magic line itself was torn:
         (re)write the magic. *)
      Unix.ftruncate fd 0;
      let n = Unix.write_substring fd magic 0 (String.length magic) in
      assert (n = String.length magic);
      String.length magic
    end
    else begin
      (* Drop the torn tail so appends land on a frame boundary. *)
      if r.torn_bytes > 0 then Unix.ftruncate fd r.valid_bytes;
      r.valid_bytes
    end
  in
  ignore (Unix.lseek fd valid Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  let next =
    match List.rev r.records with [] -> 1 | last :: _ -> last.seq + 1
  in
  { path; oc; fd; next; bytes = valid }

let open_dir ~dir =
  match read (file ~dir) with
  | Error _ as e -> e
  | Ok r -> Ok (open_from ~dir r, r.records)

let append ?(trace = Obs.Trace.null) ?(sync = false) t ~rel delta =
  Obs.Trace.span trace "wal.append" @@ fun () ->
  let seq = t.next in
  let buf = Buffer.create 64 in
  Codec.add_varint buf seq;
  Codec.add_string buf rel;
  Codec.add_delta buf delta;
  let framed = Codec.frame (Buffer.contents buf) in
  output_string t.oc framed;
  flush t.oc;
  if sync then begin
    Unix.fsync t.fd;
    Obs.Metrics.incr m_fsyncs
  end;
  t.next <- seq + 1;
  t.bytes <- t.bytes + String.length framed;
  Obs.Metrics.incr m_appends;
  Obs.Metrics.add m_bytes (String.length framed);
  Obs.Trace.attr_s trace "rel" rel;
  Obs.Trace.attr_i trace "seq" seq;
  seq

let sync t =
  flush t.oc;
  Unix.fsync t.fd;
  Obs.Metrics.incr m_fsyncs

let next_seq t = t.next
let reserve t n = if n > t.next then t.next <- n
let size t = t.bytes

let close t =
  flush t.oc;
  Unix.close t.fd
