(* The magic line names the format version. Version 2 payloads escape
   line breaks and backslashes inside quoted row values, so a version 1
   payload could read back different bytes: other versions are refused,
   never parsed. *)
let version = 2
let magic_prefix = "REVERE-SNAP "
let magic = Printf.sprintf "%s%d\n" magic_prefix version

let m_snapshots = Obs.Metrics.counter "pdms.wal.snapshots"

let name_of_seq seq = Printf.sprintf "snapshot-%d.snap" seq

let seq_of_name name =
  if
    String.length name > 13
    && String.sub name 0 9 = "snapshot-"
    && Filename.check_suffix name ".snap"
  then int_of_string_opt (String.sub name 9 (String.length name - 14))
  else None

let write ~dir ~seq payload =
  let path = Filename.concat dir (name_of_seq seq) in
  let tmp = path ^ ".tmp" in
  let buf = Buffer.create (String.length payload + 16) in
  Codec.add_varint buf seq;
  Codec.add_string buf payload;
  let body = magic ^ Codec.frame (Buffer.contents buf) in
  let fd =
    Unix.openfile tmp
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Unix.write_substring fd body 0 (String.length body) in
      assert (n = String.length body);
      Unix.fsync fd);
  (* rename is atomic within a filesystem: readers see either the old
     directory state or the complete new snapshot, never a prefix. *)
  Sys.rename tmp path;
  Obs.Metrics.incr m_snapshots;
  path

(* Why a file does not load: [Corrupt] ones are skipped by recovery,
   [Unsupported] ones stop it. *)
type failure = Corrupt of string | Unsupported of string

(* The version a [REVERE-SNAP <n>] magic line names, if [s] has one. *)
let version_of s =
  if String.starts_with ~prefix:magic_prefix s then
    match String.index_opt s '\n' with
    | Some eol ->
        let start = String.length magic_prefix in
        int_of_string_opt (String.sub s start (eol - start))
    | None -> None
  else None

let decode path =
  let s =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    match version_of s with
    | Some v when v <> version ->
        Error
          (Unsupported
             (Printf.sprintf
                "%s: snapshot format %d is not readable (this build reads \
                 format %d); re-initialise the data directory"
                path v version))
    | Some _ | None ->
        Error (Corrupt (path ^ ": not a snapshot file (bad magic line)"))
  else
    match Codec.read_frame s mlen with
    | Codec.End -> Error (Corrupt (path ^ ": empty snapshot"))
    | Codec.Torn why -> Error (Corrupt (path ^ ": " ^ why))
    | Codec.Frame (payload, _) -> (
        match
          let r = Codec.reader payload in
          let seq = Codec.read_varint r in
          let body = Codec.read_string r in
          (seq, body)
        with
        | v -> Ok v
        | exception Codec.Corrupt why -> Error (Corrupt (path ^ ": " ^ why)))

let load path =
  Result.map_error (function Corrupt msg | Unsupported msg -> msg) (decode path)

let list ~dir =
  (if Sys.file_exists dir then Sys.readdir dir else [||])
  |> Array.to_list
  |> List.filter_map (fun name ->
         match seq_of_name name with
         | Some seq -> Some (seq, Filename.concat dir name)
         | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)

let latest ~dir =
  let rec go = function
    | [] -> Error "no valid snapshot to recover from"
    | (_, path) :: rest -> (
        match decode path with
        | Ok v -> Ok v
        | Error (Unsupported msg) -> Error msg
        | Error (Corrupt _) -> go rest)
  in
  go (list ~dir)

let load_latest ~dir = Result.to_option (latest ~dir)
