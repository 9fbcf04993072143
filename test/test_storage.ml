(* Tests for the storage layer: the triple store (the annotation
   repository substrate) with its provenance and N-Triples export, and
   the durability pieces — the binary codec, the write-ahead log and
   snapshots. *)

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let vs s = Relalg.Value.Str s

let prov ?author url ts = Storage.Provenance.make ?author ~source_url:url ~timestamp:ts ()

let store_with_data () =
  let t = Storage.Triple_store.create () in
  Storage.Triple_store.add t ~subj:"u/alice#person0" ~pred:"mangrove:type"
    ~obj:(vs "person") ~prov:(prov "http://u/alice" 1);
  Storage.Triple_store.add t ~subj:"u/alice#person0" ~pred:"phone"
    ~obj:(vs "206-543-1695") ~prov:(prov "http://u/alice" 1);
  Storage.Triple_store.add t ~subj:"u/alice#person0" ~pred:"phone"
    ~obj:(vs "206-543-0000") ~prov:(prov "http://u/dept" 2);
  Storage.Triple_store.add t ~subj:"u/bob#person0" ~pred:"mangrove:type"
    ~obj:(vs "person") ~prov:(prov "http://u/bob" 3);
  Storage.Triple_store.add t ~subj:"u/bob#person0" ~pred:"phone"
    ~obj:(vs "206-543-1111") ~prov:(prov "http://u/bob" 3);
  t

let test_add_and_select () =
  let t = store_with_data () in
  check_i "size" 5 (Storage.Triple_store.size t);
  check_i "alice triples" 3
    (List.length (Storage.Triple_store.select ~subj:"u/alice#person0" t));
  check_i "phones" 3
    (List.length (Storage.Triple_store.select ~pred:"phone" t));
  check_i "by object" 1
    (List.length (Storage.Triple_store.select ~obj:(vs "206-543-1111") t))

let test_duplicate_statement_collapsed () =
  let t = Storage.Triple_store.create () in
  Storage.Triple_store.add t ~subj:"s" ~pred:"p" ~obj:(vs "o")
    ~prov:(prov "http://a" 1);
  Storage.Triple_store.add t ~subj:"s" ~pred:"p" ~obj:(vs "o")
    ~prov:(prov "http://a" 2);
  check_i "same source collapsed" 1 (Storage.Triple_store.size t);
  Storage.Triple_store.add t ~subj:"s" ~pred:"p" ~obj:(vs "o")
    ~prov:(prov "http://b" 3);
  check_i "other source kept" 2 (Storage.Triple_store.size t)

let test_remove_source () =
  let t = store_with_data () in
  check_i "removed" 2 (Storage.Triple_store.remove_source t "http://u/alice");
  check_i "remaining" 3 (Storage.Triple_store.size t);
  (* The dept-directory claim about alice survives: only alice's own
     page was retracted. *)
  check_i "only third-party claim left" 1
    (List.length (Storage.Triple_store.select ~subj:"u/alice#person0" t));
  (* Indexes must be consistent after the rebuild. *)
  check_i "phones now" 2 (List.length (Storage.Triple_store.select ~pred:"phone" t))

let test_sources () =
  let t = store_with_data () in
  check_i "three sources" 3 (List.length (Storage.Triple_store.sources t))

let test_bgp_query () =
  let t = store_with_data () in
  let v = Cq.Term.v and c s = Cq.Term.str s in
  (* All persons with their phones. *)
  let patterns =
    [ Storage.Triple_store.pat (v "S") (c "mangrove:type") (c "person");
      Storage.Triple_store.pat (v "S") (c "phone") (v "P") ]
  in
  let bindings = Storage.Triple_store.query t patterns in
  check_i "three (person, phone) pairs" 3 (List.length bindings);
  (* Join variable consistency: subjects must carry both triples. *)
  List.iter
    (fun b ->
      match Cq.Eval.Smap.find_opt "S" b with
      | Some (Relalg.Value.Str s) ->
          check_b "subject is a person" true
            (Storage.Triple_store.select ~subj:s ~pred:"mangrove:type" t <> [])
      | _ -> Alcotest.fail "unbound subject")
    bindings

let test_bgp_provenance () =
  let t = store_with_data () in
  let v = Cq.Term.v and c s = Cq.Term.str s in
  let results =
    Storage.Triple_store.query_provenanced t
      [ Storage.Triple_store.pat (c "u/alice#person0") (c "phone") (v "P") ]
  in
  check_i "two phone claims" 2 (List.length results);
  List.iter
    (fun (_, provs) -> check_i "one prov per pattern" 1 (List.length provs))
    results

(* BGP edge cases the reference property does not generate: the empty
   pattern list, a variable repeated inside one pattern, and constants
   whose value type differs from the stored one. *)

let test_query_no_patterns () =
  let t = store_with_data () in
  match Storage.Triple_store.query t [] with
  | [ b ] -> check_b "the one empty binding" true (Cq.Eval.Smap.is_empty b)
  | bs -> Alcotest.failf "expected one binding, got %d" (List.length bs)

let test_query_repeated_var () =
  let t = Storage.Triple_store.create () in
  List.iter
    (fun (subj, obj) ->
      Storage.Triple_store.add t ~subj ~pred:"knows" ~obj:(vs obj)
        ~prov:(prov "http://a" 1))
    [ ("a", "a"); ("a", "b"); ("b", "b"); ("c", "a") ];
  let v = Cq.Term.v and c s = Cq.Term.str s in
  let xs =
    Storage.Triple_store.query t
      [ Storage.Triple_store.pat (v "X") (c "knows") (v "X") ]
    |> List.map (fun b -> Cq.Eval.Smap.find "X" b)
    |> List.sort Relalg.Value.compare
  in
  check_b "only subject = object" true (xs = [ vs "a"; vs "b" ])

let test_query_constant_types () =
  let t = Storage.Triple_store.create () in
  Storage.Triple_store.add t ~subj:"s" ~pred:"n" ~obj:(Relalg.Value.Int 5)
    ~prov:(prov "http://a" 1);
  Storage.Triple_store.add t ~subj:"5" ~pred:"n" ~obj:(vs "5")
    ~prov:(prov "http://a" 1);
  let v = Cq.Term.v and c s = Cq.Term.str s in
  let count patterns = List.length (Storage.Triple_store.query t patterns) in
  check_i "int object" 1
    (count [ Storage.Triple_store.pat (v "S") (c "n") (Cq.Term.int 5) ]);
  check_i "string object" 1
    (count [ Storage.Triple_store.pat (v "S") (c "n") (c "5") ]);
  (* Subjects are strings, so an int constant there matches nothing,
     not the subject that prints the same. *)
  check_i "int subject" 0
    (count [ Storage.Triple_store.pat (Cq.Term.int 5) (v "P") (v "O") ]);
  check_i "string subject" 1
    (count [ Storage.Triple_store.pat (c "5") (v "P") (v "O") ])

let test_provenance_scope () =
  let p = prov "http://u/alice/home.html" 1 in
  check_b "in scope" true (Storage.Provenance.in_scope p "http://u/alice");
  check_b "out of scope" false (Storage.Provenance.in_scope p "http://u/bob")

(* Codec: binary round-trips and frame integrity. *)

let tup l = Array.of_list l

let test_codec_int_roundtrip () =
  List.iter
    (fun i ->
      let buf = Buffer.create 16 in
      Storage.Codec.add_int buf i;
      let r = Storage.Codec.reader (Buffer.contents buf) in
      check_b (Printf.sprintf "int %d" i) true (Storage.Codec.read_int r = i);
      check_b "consumed" true (Storage.Codec.at_end r))
    [ 0; 1; -1; 63; 64; -64; -65; 300; -300; max_int; min_int ]

let test_codec_varint_rejects_negative () =
  check_b "negative varint" true
    (try
       Storage.Codec.add_varint (Buffer.create 4) (-1);
       false
     with Invalid_argument _ -> true)

let test_codec_value_tuple_delta () =
  let values =
    [ Relalg.Value.Null; Relalg.Value.Bool true; Relalg.Value.Bool false;
      Relalg.Value.Int 42; Relalg.Value.Int (-7);
      Relalg.Value.Float 2.5; Relalg.Value.Float (-0.125);
      vs ""; vs "plain"; vs "with | pipe\nand newline" ]
  in
  let buf = Buffer.create 64 in
  List.iter (Storage.Codec.add_value buf) values;
  let r = Storage.Codec.reader (Buffer.contents buf) in
  List.iter
    (fun v ->
      check_b "value round-trip" true
        (Relalg.Value.equal (Storage.Codec.read_value r) v))
    values;
  check_b "all consumed" true (Storage.Codec.at_end r);
  let delta =
    Relalg.Relation.Delta.make
      ~adds:[ tup [ vs "a"; Relalg.Value.Int 1 ] ]
      ~dels:[ tup [ vs "b"; Relalg.Value.Int 2 ]; tup [ vs "c"; vs "d" ] ]
      ()
  in
  let buf = Buffer.create 64 in
  Storage.Codec.add_delta buf delta;
  let got = Storage.Codec.read_delta (Storage.Codec.reader (Buffer.contents buf)) in
  check_b "delta round-trip" true (got = delta)

let test_codec_frame () =
  let payload = "hello frame" in
  let framed = Storage.Codec.frame payload in
  check_i "overhead" (String.length payload + Storage.Codec.frame_overhead)
    (String.length framed);
  (match Storage.Codec.read_frame framed 0 with
  | Storage.Codec.Frame (p, next) ->
      check_b "payload back" true (p = payload);
      check_i "next at end" (String.length framed) next
  | _ -> Alcotest.fail "expected a frame");
  check_b "End at the boundary" true
    (Storage.Codec.read_frame framed (String.length framed) = Storage.Codec.End);
  (* Torn cases: short header, length past the end, checksum mismatch. *)
  let torn = function Storage.Codec.Torn _ -> true | _ -> false in
  check_b "short header torn" true
    (torn (Storage.Codec.read_frame (String.sub framed 0 5) 0));
  check_b "truncated payload torn" true
    (torn (Storage.Codec.read_frame (String.sub framed 0 (String.length framed - 2)) 0));
  let corrupt = Bytes.of_string framed in
  Bytes.set corrupt (String.length framed - 1) '\255';
  check_b "bad crc torn" true
    (torn (Storage.Codec.read_frame (Bytes.to_string corrupt) 0))

(* Known answers pin the on-disk checksum, which a round trip cannot:
   it would pass a checksum that changed on the write and the read side
   together.  The frame of "revere" is one the boxed-[Int32] checksum
   wrote. *)
let test_codec_checksum_pinned () =
  check_i "crc32 of the empty string" 0 (Storage.Codec.crc32 "");
  check_i "crc32 check value" 0xCBF43926 (Storage.Codec.crc32 "123456789");
  match Storage.Codec.read_frame "\006\000\000\000|\141c\134revere" 0 with
  | Storage.Codec.Frame (p, next) ->
      check_b "payload back" true (p = "revere");
      check_i "next at end" 14 next
  | Storage.Codec.End | Storage.Codec.Torn _ ->
      Alcotest.fail "a frame written before no longer decodes"

let gen_value =
  QCheck.Gen.(
    oneof
      [ return Relalg.Value.Null;
        map (fun b -> Relalg.Value.Bool b) bool;
        map (fun i -> Relalg.Value.Int i) int;
        map (fun f -> Relalg.Value.Float f) (float_bound_inclusive 1e6);
        map (fun s -> Relalg.Value.Str s) (string_size (int_bound 30)) ])

let gen_tuple = QCheck.Gen.(map Array.of_list (list_size (int_bound 5) gen_value))

let prop_codec_delta_roundtrip =
  QCheck.Test.make ~name:"codec delta round-trip" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         map2
           (fun adds dels -> Relalg.Relation.Delta.make ~adds ~dels ())
           (list_size (int_bound 6) gen_tuple)
           (list_size (int_bound 6) gen_tuple)))
    (fun delta ->
      let buf = Buffer.create 64 in
      Storage.Codec.add_delta buf delta;
      let encoded = Buffer.contents buf in
      let r = Storage.Codec.reader encoded in
      let got = Storage.Codec.read_delta r in
      got = delta && Storage.Codec.at_end r
      (* Determinism: equal deltas must frame to equal bytes. *)
      &&
      let buf2 = Buffer.create 64 in
      Storage.Codec.add_delta buf2 delta;
      Buffer.contents buf2 = encoded)

(* WAL: append, reopen, torn-tail truncation. *)

let with_temp_dir f = Tmpdir.with_dir ~prefix:"revere-test" f

let d1 tuples = Relalg.Relation.Delta.of_rows tuples

let test_wal_append_reopen () =
  with_temp_dir @@ fun dir ->
  (match Storage.Wal.open_dir ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok (w, records) ->
      check_i "fresh wal empty" 0 (List.length records);
      check_i "seq 1" 1 (Storage.Wal.append w ~rel:"r" (d1 [ tup [ vs "a" ] ]));
      check_i "seq 2" 2 (Storage.Wal.append w ~rel:"s" (d1 [ tup [ vs "b" ] ]));
      Storage.Wal.sync w;
      Storage.Wal.close w);
  match Storage.Wal.open_dir ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok (w, records) ->
      check_i "both records back" 2 (List.length records);
      (match records with
      | [ r1; r2 ] ->
          check_i "seq order" 1 r1.Storage.Wal.seq;
          check_i "seq order 2" 2 r2.Storage.Wal.seq;
          check_b "rel back" true (r1.Storage.Wal.rel = "r");
          check_b "delta back" true
            (r2.Storage.Wal.delta = d1 [ tup [ vs "b" ] ])
      | _ -> Alcotest.fail "unexpected records");
      check_i "next seq continues" 3 (Storage.Wal.next_seq w);
      Storage.Wal.close w

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd len;
  Unix.close fd

let test_wal_torn_tail () =
  with_temp_dir @@ fun dir ->
  let sizes =
    match Storage.Wal.open_dir ~dir with
    | Error msg -> Alcotest.fail msg
    | Ok (w, _) ->
        let sizes =
          List.map
            (fun i ->
              ignore
                (Storage.Wal.append w ~rel:"r"
                   (d1 [ tup [ vs (string_of_int i) ] ]));
              Storage.Wal.size w)
            [ 1; 2; 3 ]
        in
        Storage.Wal.close w;
        sizes
  in
  let path = Storage.Wal.file ~dir in
  (* Chop mid-way into the last record: the prefix must survive, the
     tail must be discarded and truncated away on reopen. *)
  let second = List.nth sizes 1 and third = List.nth sizes 2 in
  truncate_file path (second + (third - second) / 2);
  (match Storage.Wal.read path with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      check_i "two records survive" 2 (List.length r.Storage.Wal.records);
      check_i "valid prefix" second r.Storage.Wal.valid_bytes;
      check_b "torn reported" true (r.Storage.Wal.torn_reason <> None));
  (match Storage.Wal.open_dir ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok (w, records) ->
      check_i "replayable prefix" 2 (List.length records);
      check_i "file truncated to the boundary" second (Storage.Wal.size w);
      check_i "next append reuses the torn seq" 3 (Storage.Wal.next_seq w);
      Storage.Wal.close w);
  (* After reopen the file is clean again. *)
  match Storage.Wal.read path with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      check_b "no torn tail left" true (r.Storage.Wal.torn_reason = None)

let test_wal_bad_magic () =
  with_temp_dir @@ fun dir ->
  let path = Storage.Wal.file ~dir in
  let oc = open_out_bin path in
  output_string oc "NOT-A-WAL 9\njunk that is long enough";
  close_out oc;
  check_b "bad magic is an error, not a torn tail" true
    (Result.is_error (Storage.Wal.read path))

let test_wal_reserve () =
  with_temp_dir @@ fun dir ->
  match Storage.Wal.open_dir ~dir with
  | Error msg -> Alcotest.fail msg
  | Ok (w, _) ->
      ignore (Storage.Wal.append w ~rel:"r" (d1 [ tup [ vs "a" ] ]));
      Storage.Wal.reserve w 10;
      check_i "reserved" 10 (Storage.Wal.next_seq w);
      Storage.Wal.reserve w 4;
      check_i "reserve never lowers" 10 (Storage.Wal.next_seq w);
      check_i "append lands past the reservation" 10
        (Storage.Wal.append w ~rel:"r" (d1 [ tup [ vs "b" ] ]));
      Storage.Wal.close w;
      (* A gap is legal on re-read (strictly increasing, not dense). *)
      (match Storage.Wal.read (Storage.Wal.file ~dir) with
      | Ok r -> check_i "gap tolerated" 2 (List.length r.Storage.Wal.records)
      | Error msg -> Alcotest.fail msg)

(* Snapshots: atomic write, newest-first listing, corrupt fallback. *)

let test_snapshot_roundtrip_and_fallback () =
  with_temp_dir @@ fun dir ->
  let p1 = Storage.Snapshot.write ~dir ~seq:3 "state at three" in
  let p2 = Storage.Snapshot.write ~dir ~seq:7 "state at seven" in
  check_b "named by seq" true (Filename.basename p2 = "snapshot-7.snap");
  (match Storage.Snapshot.load p1 with
  | Ok (seq, payload) ->
      check_i "seq back" 3 seq;
      check_b "payload back" true (payload = "state at three")
  | Error msg -> Alcotest.fail msg);
  check_b "newest first" true
    (List.map fst (Storage.Snapshot.list ~dir) = [ 7; 3 ]);
  (match Storage.Snapshot.load_latest ~dir with
  | Some (7, "state at seven") -> ()
  | _ -> Alcotest.fail "latest should be seq 7");
  (* Corrupt the newest: recovery falls back to the next older one. *)
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0 p2 in
  seek_out oc (String.length "REVERE-SNAP 2\n" + 9);
  output_string oc "XXXX";
  close_out oc;
  (match Storage.Snapshot.load_latest ~dir with
  | Some (3, "state at three") -> ()
  | _ -> Alcotest.fail "corrupt newest must fall back");
  (* A torn snapshot file (crash before rename would normally prevent
     this, but belt and braces) is also skipped. *)
  truncate_file p2 10;
  match Storage.Snapshot.load_latest ~dir with
  | Some (3, _) -> ()
  | _ -> Alcotest.fail "torn newest must fall back"

(* A snapshot of another format is refused by name: recovery must not
   skip it and fall back to an older snapshot, since a format 1 payload
   can read back different bytes. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_snapshot_refuses_other_formats () =
  with_temp_dir @@ fun dir ->
  ignore (Storage.Snapshot.write ~dir ~seq:3 "state at three");
  let p7 = Storage.Snapshot.write ~dir ~seq:7 "state at seven" in
  let s = read_file p7 in
  let magic = "REVERE-SNAP 2\n" in
  check_b "written as format 2" true
    (String.sub s 0 (String.length magic) = magic);
  let oc = open_out_bin p7 in
  output_string oc
    ("REVERE-SNAP 1\n"
    ^ String.sub s (String.length magic) (String.length s - String.length magic));
  close_out oc;
  let names_format_1 msg =
    check_b ("error names the format: " ^ msg) true
      (contains msg "snapshot format 1")
  in
  (match Storage.Snapshot.load p7 with
  | Ok _ -> Alcotest.fail "a format 1 snapshot must not load"
  | Error msg -> names_format_1 msg);
  (match Storage.Snapshot.latest ~dir with
  | Ok _ -> Alcotest.fail "recovery must not fall back past format 1"
  | Error msg -> names_format_1 msg);
  check_b "load_latest finds nothing" true
    (Storage.Snapshot.load_latest ~dir = None)

(* Property: BGP matching agrees with a naive nested-loop reference. *)

let prop_bgp_reference =
  QCheck.Test.make ~name:"bgp query agrees with naive reference" ~count:150
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let t = Storage.Triple_store.create () in
      let subjects = [| "s0"; "s1"; "s2" |] in
      let preds = [| "p0"; "p1" |] in
      for i = 0 to 19 do
        Storage.Triple_store.add t
          ~subj:(Util.Prng.pick_arr prng subjects)
          ~pred:(Util.Prng.pick_arr prng preds)
          ~obj:(vs (string_of_int (Util.Prng.int prng 4)))
          ~prov:(prov (Printf.sprintf "http://src%d" (i mod 3)) i)
      done;
      let v = Cq.Term.v and c x = Cq.Term.str x in
      let pattern =
        Storage.Triple_store.pat (v "S")
          (if Util.Prng.bool prng then c "p0" else v "P")
          (v "O")
      in
      let pattern2 =
        Storage.Triple_store.pat (v "S") (c "p1") (v "O2")
      in
      let got = List.length (Storage.Triple_store.query t [ pattern; pattern2 ]) in
      (* Reference: nested loops over all triples. *)
      let triples = Storage.Triple_store.triples t in
      let matches (p : Storage.Triple_store.pattern) (tr : Storage.Triple_store.triple)
          (binding : (string * Relalg.Value.t) list) =
        let check term value binding =
          match term with
          | Cq.Term.Const x ->
              if Relalg.Value.equal x value then Some binding else None
          | Cq.Term.Var x -> (
              match List.assoc_opt x binding with
              | Some v ->
                  if Relalg.Value.equal v value then Some binding else None
              | None -> Some ((x, value) :: binding))
        in
        Option.bind (check p.Storage.Triple_store.psubj (vs tr.Storage.Triple_store.subj) binding)
          (fun b ->
            Option.bind (check p.Storage.Triple_store.ppred (vs tr.Storage.Triple_store.pred) b)
              (fun b -> check p.Storage.Triple_store.pobj tr.Storage.Triple_store.obj b))
      in
      let expected =
        List.concat_map
          (fun tr1 ->
            match matches pattern tr1 [] with
            | None -> []
            | Some b ->
                List.filter_map (fun tr2 -> matches pattern2 tr2 b) triples)
          triples
        |> List.length
      in
      got = expected)

(* Hostile input: framed and bare delta payloads with bytes dropped,
   inserted, cut or copied, and random strings, decode or raise
   [Codec.Corrupt] — nothing else.  Frames are read from the start
   until the input ends or tears. *)
let codec_payloads =
  let delta adds dels =
    let buf = Buffer.create 64 in
    Storage.Codec.add_delta buf (Relalg.Relation.Delta.make ~adds ~dels ());
    Buffer.contents buf
  in
  let d1 =
    delta
      [ tup [ vs "a"; Relalg.Value.Int (-7); Relalg.Value.Float 2.5 ];
        tup [ Relalg.Value.Null; Relalg.Value.Bool true ] ]
      [ tup [ vs "with | pipe\nand newline"; Relalg.Value.Int max_int ] ]
  and d2 = delta [] [ tup [ vs ""; Relalg.Value.Int min_int ] ] in
  QCheck.oneof
    [ Fuzz.mutations
        ~alphabet:(String.init 256 Char.chr)
        [ d1; d2; Storage.Codec.frame d1 ^ Storage.Codec.frame d2 ];
      QCheck.string ]

let prop_codec_raises_only_corrupt =
  QCheck.Test.make ~name:"codec reads raise only Corrupt" ~count:1000
    codec_payloads (fun bytes ->
      let rec frames pos =
        match Storage.Codec.read_frame bytes pos with
        | Storage.Codec.Frame (payload, next) ->
            ignore (Storage.Codec.read_delta (Storage.Codec.reader payload));
            frames next
        | Storage.Codec.End | Storage.Codec.Torn _ -> ()
      in
      let guarded f = try f () with Storage.Codec.Corrupt _ -> () in
      match
        guarded (fun () -> frames 0);
        guarded (fun () ->
            ignore (Storage.Codec.read_delta (Storage.Codec.reader bytes)))
      with
      | () -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "storage"
    [ ("triple_store",
       [ Alcotest.test_case "add and select" `Quick test_add_and_select;
         Alcotest.test_case "duplicates" `Quick test_duplicate_statement_collapsed;
         Alcotest.test_case "remove source" `Quick test_remove_source;
         Alcotest.test_case "sources" `Quick test_sources;
         Alcotest.test_case "bgp query" `Quick test_bgp_query;
         Alcotest.test_case "bgp provenance" `Quick test_bgp_provenance ]);
      ("query_patterns",
       [ Alcotest.test_case "no patterns" `Quick test_query_no_patterns;
         Alcotest.test_case "repeated variable" `Quick test_query_repeated_var;
         Alcotest.test_case "constant types" `Quick test_query_constant_types ]);
      ("provenance", [ Alcotest.test_case "scope" `Quick test_provenance_scope ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_bgp_reference; prop_codec_delta_roundtrip ]);
      ("codec",
       [ Alcotest.test_case "int round-trip" `Quick test_codec_int_roundtrip;
         Alcotest.test_case "varint negative" `Quick test_codec_varint_rejects_negative;
         Alcotest.test_case "value/tuple/delta" `Quick test_codec_value_tuple_delta;
         Alcotest.test_case "framing" `Quick test_codec_frame;
         Alcotest.test_case "checksum pinned" `Quick test_codec_checksum_pinned;
         QCheck_alcotest.to_alcotest prop_codec_raises_only_corrupt ]);
      ("wal",
       [ Alcotest.test_case "append and reopen" `Quick test_wal_append_reopen;
         Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
         Alcotest.test_case "bad magic" `Quick test_wal_bad_magic;
         Alcotest.test_case "reserve" `Quick test_wal_reserve ]);
      ("snapshot",
       [ Alcotest.test_case "round-trip and fallback" `Quick
           test_snapshot_roundtrip_and_fallback;
         Alcotest.test_case "snapshot refuses other formats" `Quick
           test_snapshot_refuses_other_formats ]) ]
