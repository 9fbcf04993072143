(* One run of one workload: set up (timed, several times), verify a
   prefix of the op stream (untimed), serve the round in a closed loop
   for the window (timed; each second of the window starts with a
   restart from a frozen data directory, also timed), then check the
   final state. Every time reported is scaled to the nominal machine
   speed by reference samples taken around it (see speed.ml).

   The timed loop calls only user-visible entry points. A traced run
   spends the second half of its window replaying the stream through
   the layers' public functions instead, each call wrapped in a
   bench-side span, and asserts that every split result equals what
   the public call returns. *)

open World

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (ms_between t0 (now_ns ()), r)

(* Nearest-rank percentile of a sorted sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let quantile p l = percentile (let a = Array.of_list l in Array.sort Float.compare a; a) p
let median = quantile 0.5

(* The window is cut into blocks of one second. Throughput is the
   median over blocks, and each block's times are scaled by the
   reference samples taken in it. Each block starts with a restart, so
   recover_ms, the median restart, samples the whole window as the ops
   do. *)
let block_ns = 1_000_000_000L

(* A reference sample is taken on entering a block and before any op
   that starts this long after the last sample: ~1% of the window. *)
let sample_every_ns = 100_000_000L

(* Reference samples before and after each set-up. *)
let setup_samples = 5

(* Set-ups: at least [min_setups], and more while they have taken less
   than [setup_budget_s] in all, up to [max_setups]; setup_s is their
   median. *)
let min_setups = 3
let max_setups = 15
let setup_budget_s = 1.5

(* ------------------------------------------------------------------ *)
(* Results and how they are compared and transcribed. *)

type result = Rows of Relalg.Relation.t | Hits of Pdms.Keyword.hit list | Done

let rendered_row row =
  String.concat "|" (Array.to_list (Array.map Relalg.Value.to_string row))

let rendered_rows rel =
  List.sort String.compare (List.map rendered_row (Relalg.Relation.tuples rel))

let rendered_hit (h : Pdms.Keyword.hit) =
  Printf.sprintf "%s|%s|%s|%Lx" h.Pdms.Keyword.peer h.Pdms.Keyword.stored_rel
    (rendered_row h.Pdms.Keyword.tuple)
    (Int64.bits_of_float h.Pdms.Keyword.score)

let same_tuples a b =
  List.equal
    (fun x y -> Array.length x = Array.length y && Array.for_all2 Relalg.Value.equal x y)
    (Relalg.Relation.tuples a) (Relalg.Relation.tuples b)

let describe = function
  | Answer_op q -> "answer " ^ Cq.Query.to_string q
  | Distributed_op (at, q) -> "distributed@" ^ at ^ " " ^ Cq.Query.to_string q
  | Search_op kw -> "search " ^ kw
  | Cached_op q -> "cached " ^ Cq.Query.to_string q
  | Update_op u ->
      let rows l = String.concat ";" (List.map rendered_row l) in
      Printf.sprintf "update %s +%s -%s" u.Pdms.Updategram.rel
        (rows u.Pdms.Updategram.inserts) (rows u.Pdms.Updategram.deletes)
  | Snapshot_op -> "snapshot"

(* ------------------------------------------------------------------ *)
(* The user-visible calls: what the timed loop runs. *)

exception Incomplete of string

let search_limit = 10

let execute w = function
  | Answer_op q -> Rows (Pdms.Answer.answer w.catalog q).Pdms.Answer.answers
  | Distributed_op (at, q) ->
      let p = Pdms.Distributed.execute w.catalog w.net ~at q in
      if not p.Pdms.Distributed.report.Pdms.Distributed.complete then
        raise (Incomplete (Pdms.Distributed.report_to_string p.Pdms.Distributed.report));
      Rows p.Pdms.Distributed.answers
  | Search_op kw -> Hits (Pdms.Keyword.search ~limit:search_limit w.catalog kw)
  | Cached_op q -> Rows (Pdms.Cache.answer w.cache q).Pdms.Answer.answers
  | Update_op u ->
      (* fsync per update, as `revere update` does *)
      Pdms.Persist.apply ~sync:true w.persist u;
      ignore (Pdms.Cache.invalidate w.cache u);
      Done
  | Snapshot_op ->
      ignore (Pdms.Persist.snapshot w.persist);
      Done

(* ------------------------------------------------------------------ *)
(* The same ops split into calls to the layers' public functions. [span]
   wraps each call: in a bench-side trace span, or not at all. *)

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let tracing tr = { span = (fun name f -> Obs.Trace.span tr name f) }

type split_answer = {
  outcome : Pdms.Reformulate.outcome;
  answers : Relalg.Relation.t;
  tuples : int;  (** pre-dedup head tuples *)
}

let split_answer { span } catalog q =
  let outcome =
    span "reformulate" (fun () -> Pdms.Reformulate.reformulate catalog q)
  in
  match outcome.Pdms.Reformulate.rewritings with
  | [] ->
      { outcome; answers = Relalg.Relation.create (Cq.Eval.head_schema q); tuples = 0 }
  | q0 :: _ as rewritings ->
      let db = span "global_db" (fun () -> Pdms.Catalog.global_db catalog) in
      let answers = Relalg.Relation.create (Cq.Eval.head_schema q0) in
      let counts =
        match rewritings with
        | [ _ ] ->
            span "eval.run" (fun () -> [ Cq.Eval.run_union_into answers db rewritings ])
        | _ ->
            let plan = span "plan.build" (fun () -> Cq.Plan.build db rewritings) in
            span "plan.run" (fun () -> Cq.Plan.run_union_into answers db plan)
      in
      { outcome; answers; tuples = List.fold_left ( + ) 0 counts }

type split_search = {
  hits : Pdms.Keyword.hit list;
  candidates : int;
  relations : int;
  skipped : int;
}

(* Rank as Keyword.search does: relations in database order, skipping a
   relation whose score bound cannot beat the current k-th score. *)
let rank ~limit probes =
  let top = Util.Topk.create limit in
  let candidates = ref 0 and skipped = ref 0 in
  List.iter
    (fun (pr : Pdms.Kwindex.probe) ->
      candidates := !candidates + Array.length pr.Pdms.Kwindex.candidates;
      let skip =
        match Util.Topk.min_score top with
        | Some floor -> pr.Pdms.Kwindex.bound <= floor
        | None -> false
      in
      if skip then incr skipped
      else
        let e = pr.Pdms.Kwindex.source in
        Array.iter
          (fun id ->
            let score = pr.Pdms.Kwindex.scores.(id) in
            if score > 0.0 then
              Util.Topk.add top score
                {
                  Pdms.Keyword.peer = e.Pdms.Kwindex.peer;
                  stored_rel = e.Pdms.Kwindex.rel_name;
                  tuple = e.Pdms.Kwindex.tuples.(id);
                  score;
                })
          pr.Pdms.Kwindex.candidates)
    probes;
  (List.map snd (Util.Topk.to_list top), !candidates, !skipped)

let split_search { span } catalog kw =
  let db = span "global_db" (fun () -> Pdms.Catalog.global_db catalog) in
  let entries =
    span "kwindex.get" (fun () ->
        List.map
          (fun rel_name ->
            fst (Pdms.Kwindex.get ~rel_name (Relalg.Database.find db rel_name)))
          (Relalg.Database.names db))
  in
  let stamp, corpus = span "kwindex.corpus" (fun () -> Pdms.Kwindex.corpus entries) in
  let query_vec =
    span "vectorize" (fun () ->
        Util.Tfidf.vectorize corpus
          (List.map Util.Stemmer.stem (Util.Tokenize.words kw)))
  in
  let probes =
    span "kwindex.probe" (fun () ->
        List.map (fun e -> Pdms.Kwindex.probe e ~stamp corpus query_vec) entries)
  in
  let hits, candidates, skipped =
    span "rank" (fun () -> rank ~limit:search_limit probes)
  in
  { hits; candidates; relations = List.length entries; skipped }

let split_update { span } w (u : Pdms.Updategram.t) =
  let rel_name = u.Pdms.Updategram.rel in
  let rel = Relalg.Database.find (Pdms.Persist.db w.persist) rel_name in
  let d = span "delta.effective" (fun () -> Pdms.Updategram.effective_delta rel u) in
  if not (Relalg.Relation.Delta.is_empty d) then
    span "wal.append" (fun () -> Pdms.Persist.tee w.persist ~rel:rel_name d);
  span "delta.apply" (fun () -> Relalg.Relation.apply rel d);
  span "wal.fsync" (fun () -> Pdms.Persist.sync w.persist);
  span "cache.invalidate" (fun () -> ignore (Pdms.Cache.invalidate w.cache u))

let split_recover { span } dir =
  let records =
    span "recover.wal_read" (fun () ->
        match Storage.Wal.read (Storage.Wal.file ~dir) with
        | Ok r -> r.Storage.Wal.records
        | Error msg -> failwith msg)
  in
  let seq, payload =
    span "recover.snapshot_load" (fun () ->
        match Storage.Snapshot.load_latest ~dir with
        | Some s -> s
        | None -> failwith "no valid snapshot")
  in
  let catalog = span "recover.parse" (fun () -> Pdms.Pdms_file.parse_exn payload) in
  let replayed =
    span "recover.replay" (fun () ->
        let db = Pdms.Catalog.global_db catalog in
        List.fold_left
          (fun n (r : Storage.Wal.record) ->
            if r.Storage.Wal.seq <= seq then n
            else begin
              Relalg.Relation.apply
                (Relalg.Database.find db r.Storage.Wal.rel)
                r.Storage.Wal.delta;
              n + 1
            end)
          0 records)
  in
  (catalog, replayed)

(* ------------------------------------------------------------------ *)
(* Run state. *)

type timed = { kind : kind; ms : float; block : int }

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed output checks *)
  mutable errors : string list;  (** failed ops, first few *)
  mutable timeline : timed list;  (** the untraced loop's ops, newest first *)
  blocks : (int, int * int64 * int64) Hashtbl.t;
      (** block -> ops, first op start, last op end *)
  mutable restarts : (int * float) list;  (** block, ms *)
  mutable checkpoint_ms : float;  (** the final snapshot *)
  speed : (int, float list) Hashtbl.t;  (** block -> reference samples, ms *)
  mutable traced_speed : float list;  (** reference samples, traced half *)
  (* traced phase *)
  profile : (string, int * float) Hashtbl.t;  (** path -> calls, self ms *)
  acc : (string, float) Hashtbl.t;
  mutable traced : timed list;  (** root span ms of each traced op *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    problems = [];
    errors = [];
    timeline = [];
    blocks = Hashtbl.create 64;
    restarts = [];
    checkpoint_ms = 0.;
    speed = Hashtbl.create 64;
    traced_speed = [];
    profile = Hashtbl.create 64;
    acc = Hashtbl.create 64;
    traced = [];
  }

(* Latencies of kind [k], in op order. *)
let latencies ops k =
  List.rev (List.filter_map (fun o -> if o.kind = k then Some o.ms else None) ops)

let problem t fmt =
  Printf.ksprintf (fun msg -> t.problems <- msg :: t.problems) fmt

let bump t key v =
  Hashtbl.replace t.acc key (v +. Option.value ~default:0. (Hashtbl.find_opt t.acc key))

let get t key = Option.value ~default:0. (Hashtbl.find_opt t.acc key)

let op_failed t op e =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then
    t.errors <- (describe op ^ ": " ^ Printexc.to_string e) :: t.errors

(* ------------------------------------------------------------------ *)
(* Verification. *)

let same_answer t q ~split ~public =
  if not (same_tuples split public) then
    problem t "split answer differs from Answer.answer for %s" (Cq.Query.to_string q)

let same_hits t kw ~split ~public =
  if List.map rendered_hit split <> List.map rendered_hit public then
    problem t "split search differs from Keyword.search for %S" kw

let check_against_fresh t w what q (r : Relalg.Relation.t) =
  let fresh = (Pdms.Answer.answer w.catalog q).Pdms.Answer.answers in
  if rendered_rows fresh <> rendered_rows r then
    problem t "%s differs from a fresh Answer.answer for %s" what (Cq.Query.to_string q)

(* Ops of the round the verify pass checks before the window. *)
let verify_ops = 12

(* Run the first [verify_ops] ops of the round through the public
   calls, checking each result against an independent path, and return
   the transcript digest: every result
   (answers sorted, hits with exact score bits) plus the catalog
   rendering at the end. Ops are made one at a time: an update's
   retraction depends on the rows the ops before it left. *)
let verify_prefix t w =
  let b = Buffer.create 4096 in
  let check op =
    Buffer.add_string b (describe op);
    Buffer.add_char b '\n';
    match execute w op with
    | exception e -> problem t "verify: %s raised %s" (describe op) (Printexc.to_string e)
    | result ->
        (match (op, result) with
        | Answer_op q, Rows r ->
            same_answer t q ~split:(split_answer untraced w.catalog q).answers ~public:r
        | Distributed_op (_, q), Rows r -> check_against_fresh t w "distributed answer" q r
        | Cached_op q, Rows r -> check_against_fresh t w "cached answer" q r
        | Search_op kw, Hits h ->
            same_hits t kw ~split:(split_search untraced w.catalog kw).hits ~public:h
        | Update_op u, Done ->
            let rel = Relalg.Database.find (Pdms.Persist.db w.persist) u.Pdms.Updategram.rel in
            List.iter
              (fun row ->
                if not (Relalg.Relation.mem rel row) then
                  problem t "verify: insert missing after %s" (describe op))
              u.Pdms.Updategram.inserts
        | _ -> ());
        (match result with
        | Rows r -> List.iter (fun row -> Buffer.add_string b row; Buffer.add_char b '\n') (rendered_rows r)
        | Hits h -> List.iter (fun hit -> Buffer.add_string b (rendered_hit hit); Buffer.add_char b '\n') h
        | Done -> ())
  in
  for _ = 1 to verify_ops do
    check (World.next w)
  done;
  Buffer.add_string b (Pdms.Pdms_file.render w.catalog);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* After the loop: every template the cache serves equals a fresh
   answer, distributed execution equals central answering, and the
   split search path equals Keyword.search. *)
let check_final t w =
  if World.uses w.spec Cached then
    Array.iter
      (fun q ->
        check_against_fresh t w "cached answer" q
          (Pdms.Cache.answer w.cache q).Pdms.Answer.answers)
      w.templates;
  let prng = Util.Prng.create 0 in
  for i = 0 to 2 do
    let at, q = World.posed w prng i in
    match Pdms.Distributed.execute w.catalog w.net ~at q with
    | p ->
        if not p.Pdms.Distributed.report.Pdms.Distributed.complete then
          problem t "final: distributed answer incomplete for %s" (Cq.Query.to_string q);
        check_against_fresh t w "final distributed answer" q p.Pdms.Distributed.answers
    | exception e -> problem t "final: distributed raised %s" (Printexc.to_string e)
  done;
  Array.iteri
    (fun i kw ->
      if i < 8 then
        same_hits t kw ~split:(split_search untraced w.catalog kw).hits
          ~public:(Pdms.Keyword.search ~limit:search_limit w.catalog kw))
    w.keywords

(* ------------------------------------------------------------------ *)
(* The loops. *)

type until = Window of { start : int64; length : int64 } | Ops of int

let continue until n =
  match until with
  | Window { start; length } -> Int64.sub (now_ns ()) start < length
  | Ops limit -> n < limit

let block_of until t_ns =
  match until with
  | Window { start; _ } -> Int64.to_int (Int64.div (Int64.sub t_ns start) block_ns)
  | Ops _ -> 0

(* Run [step] in a closed loop until [until]. Entering a block runs
   [sample] and then [on_block], outside every op; [sample] also runs
   before any step that starts [sample_every_ns] after the last one. *)
let loop until ~sample ~on_block ~step =
  let n = ref 0 and current = ref (-1) and last = ref 0L in
  while continue until !n do
    let now = now_ns () in
    let b = block_of until now in
    if b <> !current || Int64.sub now !last >= sample_every_ns then begin
      last := now;
      sample b
    end;
    if b <> !current then (current := b; on_block b);
    step b;
    incr n
  done

(* The round's next op through the public call, timed in block [b]. *)
let serve t w b =
  let op = World.next w in
  let t0 = now_ns () in
  (match execute w op with
  | _ -> ()
  | exception (Out_of_memory as e) -> raise e
  | exception e -> op_failed t op e);
  let t1 = now_ns () in
  t.attempted <- t.attempted + 1;
  t.timeline <- { kind = kind_of op; ms = ms_between t0 t1; block = b } :: t.timeline;
  Hashtbl.replace t.blocks b
    (match Hashtbl.find_opt t.blocks b with
    | None -> (1, t0, t1)
    | Some (n, first, _) -> (n + 1, first, t1))

(* Counter deltas attributed to the op kind that caused them. *)
let counters_of = function
  | Answer -> [ ("pdms.reformulate.sweep.pairs_tested", "reformulate.sweep_pairs_tested");
                ("cq.plan.bindings_reused", "plan.bindings_reused") ]
  | Search -> [ ("pdms.kwindex.builds", "kwindex.builds");
                ("pdms.delta.patched_postings", "kwindex.patched_postings");
                ("pdms.kwindex.df_merges", "kwindex.df_merges") ]
  | Cached -> [ ("pdms.cache.evictions", "cache.evictions") ]
  | Update -> [ ("pdms.cache.invalidated", "cache.invalidated");
                ("pdms.delta.cache_kept", "cache.kept");
                ("pdms.wal.bytes", "wal.bytes") ]
  | Distributed | Snapshot -> []

let fold_spans t sink =
  List.iter
    (fun (root : Obs.Span.t) ->
      let rec walk prefix (s : Obs.Span.t) =
        let path = if prefix = "" then s.Obs.Span.name else prefix ^ "/" ^ s.Obs.Span.name in
        let children =
          List.fold_left (fun a (c : Obs.Span.t) -> a +. c.Obs.Span.duration_s) 0. s.Obs.Span.children
        in
        let calls, self = Option.value ~default:(0, 0.) (Hashtbl.find_opt t.profile path) in
        Hashtbl.replace t.profile path
          (calls + 1, self +. ((s.Obs.Span.duration_s -. children) *. 1000.));
        List.iter (walk path) s.Obs.Span.children
      in
      walk "" root)
    (Obs.Sink.spans sink);
  Obs.Sink.clear sink

let root_ms sink =
  match Obs.Sink.spans sink with
  | [ root ] -> root.Obs.Span.duration_s *. 1000.
  | _ -> 0.

(* One op through the split path under [tr], with its layer counts;
   then each split result is checked against the public call. *)
let traced_op t w tr sink op =
  let ({ span } as sp) = tracing tr in
  let k = kind_of op in
  let name = kind_name k in
  let counters = counters_of k in
  let before = if counters = [] then None else Some (Obs.Metrics.snapshot ()) in
  let patches0 = Relalg.Stats.cache_patches () and rescans0 = Relalg.Stats.cache_misses () in
  let hits0 = Pdms.Cache.hits w.cache in
  let sends0 = Pdms.Network.messages_sent w.net in
  let check =
    match op with
    | Answer_op q ->
        let s = span name (fun () -> split_answer sp w.catalog q) in
        let st = s.outcome.Pdms.Reformulate.stats in
        bump t "reformulate.nodes_expanded" (float_of_int st.Pdms.Reformulate.nodes_expanded);
        bump t "reformulate.emitted" (float_of_int st.Pdms.Reformulate.emitted);
        bump t "reformulate.rewritings"
          (float_of_int (List.length s.outcome.Pdms.Reformulate.rewritings));
        bump t "eval.tuples" (float_of_int s.tuples);
        bump t "eval.answers" (float_of_int (Relalg.Relation.cardinality s.answers));
        fun () ->
          same_answer t q ~split:s.answers
            ~public:(Pdms.Answer.answer w.catalog q).Pdms.Answer.answers
    | Search_op kw ->
        let s = span name (fun () -> split_search sp w.catalog kw) in
        bump t "kwindex.candidates" (float_of_int s.candidates);
        bump t "rank.relations" (float_of_int s.relations);
        bump t "rank.skipped" (float_of_int s.skipped);
        fun () ->
          same_hits t kw ~split:s.hits
            ~public:(Pdms.Keyword.search ~limit:search_limit w.catalog kw)
    | Update_op u ->
        span name (fun () -> split_update sp w u);
        ignore
    | Distributed_op (at, q) ->
        let p =
          span name (fun () ->
              span "distributed.execute" (fun () ->
                  Pdms.Distributed.execute w.catalog w.net ~at q))
        in
        if not p.Pdms.Distributed.report.Pdms.Distributed.complete then
          raise (Incomplete (Pdms.Distributed.report_to_string p.Pdms.Distributed.report));
        bump t "distributed.rewritings" (float_of_int (List.length p.Pdms.Distributed.sites));
        ignore
    | Cached_op q ->
        let r = span name (fun () -> span "cache.answer" (fun () -> Pdms.Cache.answer w.cache q)) in
        fun () -> check_against_fresh t w "cached answer" q r.Pdms.Answer.answers
    | Snapshot_op ->
        span name (fun () ->
            span "persist.snapshot" (fun () -> ignore (Pdms.Persist.snapshot w.persist)));
        ignore
  in
  let ms = root_ms sink in
  t.traced <- { kind = k; ms; block = 0 } :: t.traced;
  fold_spans t sink;
  (match before with
  | None -> ()
  | Some before ->
      let after = Obs.Metrics.snapshot () in
      List.iter
        (fun (counter, key) ->
          bump t key
            (float_of_int
               (Obs.Metrics.counter_value after counter
               - Obs.Metrics.counter_value before counter)))
        counters);
  if k = Answer || k = Cached then begin
    bump t "stats.patches" (float_of_int (Relalg.Stats.cache_patches () - patches0));
    bump t "stats.fallbacks" (float_of_int (Relalg.Stats.cache_misses () - rescans0))
  end;
  (match k with
  | Distributed ->
      bump t "distributed.net_sends" (float_of_int (Pdms.Network.messages_sent w.net - sends0))
  | Cached ->
      let hit = Pdms.Cache.hits w.cache > hits0 in
      bump t (if hit then "cache.hits" else "cache.misses") 1.;
      bump t (if hit then "cache.hit_ms" else "cache.miss_ms") ms
  | Answer | Search | Update | Snapshot -> ());
  check ()

(* ------------------------------------------------------------------ *)
(* Restarts and durability. *)

(* Restart from the frozen directory in block [b]: the timed
   Persist.open_dir. Its rendering is compared on the first restart
   only: every restart reads the same frozen directory. *)
let restart t w b =
  t.attempted <- t.attempted + 1;
  match timed (fun () -> Pdms.Persist.open_dir w.restart_dir) with
  | ms, Ok p ->
      if t.restarts = []
         && Pdms.Pdms_file.render (Pdms.Persist.catalog p) <> w.restart_render
      then problem t "a restart renders differently from its directory's catalog";
      t.restarts <- (b, ms) :: t.restarts;
      Pdms.Persist.close p
  | _, Error msg ->
      t.failed <- t.failed + 1;
      t.errors <- ("restart: " ^ msg) :: t.errors

(* The same restart split into the recovery layers, under spans. *)
let traced_restart t w =
  t.attempted <- t.attempted + 1;
  let sink = Obs.Sink.memory () in
  let sp = tracing (Obs.Trace.create sink) in
  let catalog, replayed = sp.span "recover" (fun () -> split_recover sp w.restart_dir) in
  bump t "recover.count" 1.;
  bump t "recover.records" (float_of_int replayed);
  fold_spans t sink;
  if Pdms.Pdms_file.render catalog <> w.restart_render then
    problem t "split recovery renders differently from its directory's catalog"

(* The round's next op through the split path, traced. *)
let replay t w tr sink =
  let op = World.next w in
  t.attempted <- t.attempted + 1;
  match traced_op t w tr sink op with
  | () -> ()
  | exception (Out_of_memory as e) -> raise e
  | exception e ->
      Obs.Sink.clear sink;
      op_failed t op e

(* The live directory survives a restart byte for byte; then checkpoint
   it. *)
let check_durable t w =
  let live = Pdms.Pdms_file.render w.catalog in
  Pdms.Persist.close w.persist;
  match Pdms.Persist.open_dir w.dir with
  | Error msg -> problem t "the live directory does not reopen: %s" msg
  | Ok p ->
      if Pdms.Pdms_file.render (Pdms.Persist.catalog p) <> live then
        problem t "the recovered catalog renders differently from the live one";
      let ms, _ = timed (fun () -> Pdms.Persist.snapshot p) in
      t.checkpoint_ms <- ms;
      Pdms.Persist.close p

(* ------------------------------------------------------------------ *)
(* Metrics. Names and units here must match BENCHMARK.json. *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms"); ("latency_p95_ms", "ms");
    ("recover_ms", "ms"); ("heap_peak_mb", "MiB");
    ("wal_bytes_per_update", "bytes") ]

type measured = {
  setups : (float * float) list;  (** ms, and the reference factor before it *)
  ops : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

(* How many times slower than nominal the machine ran in block [b] of
   the untraced window. *)
let block_factor t b = Speed.factor (Option.value ~default:[] (Hashtbl.find_opt t.speed b))

let at_nominal t o = o.ms /. block_factor t o.block

(* Percentile [p] of kind [k]'s latencies over the window; 0 where the
   workload runs no op of that kind. *)
let kind_percentile t k p =
  match List.filter (fun o -> o.kind = k) t.timeline with
  | [] -> 0.
  | l -> quantile p (List.map (at_nominal t) l)

let e2e_values t m =
  let after = Obs.Metrics.snapshot () in
  let all = List.map (at_nominal t) t.timeline in
  [ median (List.map (fun (ms, factor) -> ms /. factor) m.setups) /. 1000.;
    median
      (Hashtbl.fold
         (fun b (n, first, last) acc ->
           if n < 2 then acc
           else (float_of_int n /. (ms_between first last /. 1000.) *. block_factor t b) :: acc)
         t.blocks []);
    quantile 0.5 all; quantile 0.95 all;
    median (List.map (fun (b, ms) -> ms /. block_factor t b) t.restarts);
    float_of_int m.gc1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.;
    float_of_int (Obs.Metrics.counter_value after "pdms.wal.bytes")
    /. float_of_int (Obs.Metrics.counter_value after "pdms.wal.appends") ]

let self_ms t path =
  match Hashtbl.find_opt t.profile path with Some (_, ms) -> ms | None -> 0.

let ratio a b = if b = 0. then 0. else a /. b

let window_samples t = List.concat (List.of_seq (Hashtbl.to_seq_values t.speed))

(* The traced half's times are scaled by all of its reference samples;
   the untraced half's latencies op by op, as the end-to-end ones. *)
let per_layer t m =
  let count k = float_of_int (List.length (latencies t.traced k)) in
  let per k x = ratio x (count k) in
  (* Statistics serve answers, and cached answers when they miss. *)
  let per_answering x = ratio x (count Answer +. count Cached) in
  let recovers = get t "recover.count" in
  let hits = get t "cache.hits" and misses = get t "cache.misses" in
  (* Tracing overhead: the median traced op against the median untraced
     op of the same kind, weighted by the traced ops of each kind. *)
  let traced_ms, untraced_ms =
    List.fold_left
      (fun (a, b) k ->
        match (latencies t.traced k, latencies t.timeline k) with
        | [], _ | _, [] -> (a, b)
        | traced, untraced ->
            let n = float_of_int (List.length traced) in
            (a +. (median traced *. n), b +. (median untraced *. n)))
      (0., 0.) kinds
  in
  let traced_factor = Speed.factor t.traced_speed in
  List.map
    (fun (name, unit, v) -> (name, unit, if unit = "ms" then v /. traced_factor else v))
    ([ ("reformulate.self_ms", "ms", per Answer (self_ms t "answer/reformulate"));
       ("reformulate.nodes_expanded", "count", per Answer (get t "reformulate.nodes_expanded"));
       ("reformulate.rewritings", "count", per Answer (get t "reformulate.rewritings"));
       ("reformulate.useful_ratio", "ratio",
         ratio (get t "reformulate.emitted") (get t "reformulate.nodes_expanded"));
       ("reformulate.sweep_pairs_tested", "count",
         per Answer (get t "reformulate.sweep_pairs_tested"));
       ("plan.build.self_ms", "ms", per Answer (self_ms t "answer/plan.build"));
       ("plan.run.self_ms", "ms",
         per Answer (self_ms t "answer/plan.run" +. self_ms t "answer/eval.run"));
       ("plan.bindings_reused", "count", per Answer (get t "plan.bindings_reused"));
       ("eval.tuples", "count", per Answer (get t "eval.tuples"));
       ("eval.dedup_ratio", "ratio",
         ratio (get t "eval.tuples" -. get t "eval.answers") (get t "eval.tuples"));
       ("stats.patches", "count", per_answering (get t "stats.patches"));
       ("stats.fallbacks", "count", per_answering (get t "stats.fallbacks"));
       ("kwindex.get.self_ms", "ms", per Search (self_ms t "search/kwindex.get"));
       ("kwindex.builds", "count", per Search (get t "kwindex.builds"));
       ("kwindex.patched_postings", "count", per Search (get t "kwindex.patched_postings"));
       ("kwindex.corpus.self_ms", "ms", per Search (self_ms t "search/kwindex.corpus"));
       ("kwindex.df_merges", "count", per Search (get t "kwindex.df_merges"));
       ("kwindex.probe.self_ms", "ms", per Search (self_ms t "search/kwindex.probe"));
       ("kwindex.candidates", "count", per Search (get t "kwindex.candidates"));
       ("rank.self_ms", "ms", per Search (self_ms t "search/rank"));
       ("rank.skip_ratio", "ratio", ratio (get t "rank.skipped") (get t "rank.relations"));
       ("cache.hit_ratio", "ratio", ratio hits (hits +. misses));
       ("cache.hit_ms", "ms", ratio (get t "cache.hit_ms") hits);
       ("cache.miss_ms", "ms", ratio (get t "cache.miss_ms") misses);
       ("cache.evictions", "count", per Cached (get t "cache.evictions"));
       ("cache.invalidated", "count", per Update (get t "cache.invalidated"));
       ("cache.kept", "count", per Update (get t "cache.kept"));
       ("cache.invalidate.self_ms", "ms", per Update (self_ms t "update/cache.invalidate"));
       ("delta.effective.self_ms", "ms", per Update (self_ms t "update/delta.effective"));
       ("wal.append.self_ms", "ms", per Update (self_ms t "update/wal.append"));
       ("delta.apply.self_ms", "ms", per Update (self_ms t "update/delta.apply"));
       ("wal.fsync.self_ms", "ms", per Update (self_ms t "update/wal.fsync"));
       ("wal.bytes", "bytes", per Update (get t "wal.bytes"));
       ("snapshot.write_ms", "ms", t.checkpoint_ms);
       ("recover.wal_read.self_ms", "ms", ratio (self_ms t "recover/recover.wal_read") recovers);
       ("recover.snapshot_load.self_ms", "ms",
         ratio (self_ms t "recover/recover.snapshot_load") recovers);
       ("recover.parse.self_ms", "ms", ratio (self_ms t "recover/recover.parse") recovers);
       ("recover.replay.self_ms", "ms", ratio (self_ms t "recover/recover.replay") recovers);
       ("recover.records", "count", ratio (get t "recover.records") recovers);
       ("distributed.net_sends", "count", per Distributed (get t "distributed.net_sends"));
       ("distributed.rewritings", "count", per Distributed (get t "distributed.rewritings"));
       ("gc.minor_words_per_op", "words",
         ratio (m.gc1.Gc.minor_words -. m.gc0.Gc.minor_words) (float_of_int m.ops));
       ("gc.major_collections_per_kop", "count",
         ratio
           (1000. *. float_of_int (m.gc1.Gc.major_collections - m.gc0.Gc.major_collections))
           (float_of_int m.ops)) ]
    @ List.map
        (fun k -> (kind_name k ^ ".unattributed_ms", "ms", per k (self_ms t (kind_name k))))
        [ Answer; Distributed; Search; Cached; Update ]
    @ [ ("recover.unattributed_ms", "ms", ratio (self_ms t "recover") recovers) ])
  @ [ ("trace.overhead_pct", "%", 100. *. (ratio traced_ms untraced_ms -. 1.)) ]
  @ List.concat_map
      (fun k ->
        [ (kind_name k ^ ".p50_ms", "ms", kind_percentile t k 0.5);
          (kind_name k ^ ".p95_ms", "ms", kind_percentile t k 0.95) ])
      [ Answer; Distributed; Search; Cached; Update ]
  @ [ ("reference.factor", "ratio", Speed.factor (window_samples t)) ]

(* ------------------------------------------------------------------ *)
(* The run. *)

type report = {
  workload : string;
  digest : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  problems : string list;
  errors : string list;
  profile : (string * int * float) list;  (** traced runs only *)
  counts : (string * int) list;  (** timed ops per kind, untraced *)
  factors : float * float;  (** reference speed in the window, in set-up *)
}

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Data directories live under the directory the benchmark runs in,
   which is all it may write to; each run's is named after its pid. *)
let work_root = ".perf_work"

(* A killed run leaves its directory behind; the next run removes it. *)
let remove_stale () =
  match Sys.readdir work_root with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e ->
          let pid =
            match String.rindex_opt e '-' with
            | Some i -> int_of_string_opt (String.sub e (i + 1) (String.length e - i - 1))
            | None -> None
          in
          match pid with
          | Some pid -> (
              match Unix.kill pid 0 with
              | exception Unix.Unix_error (Unix.ESRCH, _, _) ->
                  remove (Filename.concat work_root e)
              | _ | (exception Unix.Unix_error _) -> ())
          | None -> ())
        entries

(* [ops]: a count-bounded run of that many round ops per half (the
   smoke check); otherwise the window is [seconds] of wall time. *)
let run ?ops ~seconds ~trace ~seed spec =
  Obs.Trace.set_clock (fun () -> Int64.to_float (now_ns ()) /. 1e9);
  let t = create () in
  remove_stale ();
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" spec.name (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      remove dir;
      try Sys.rmdir work_root with Sys_error _ -> ())
  @@ fun () ->
  (* Each set-up starts from an empty index and statistics cache and a
     compacted heap, and is scaled by the reference samples around it. *)
  let rec set_up setups prev =
    Option.iter (fun (w : World.t) -> Pdms.Persist.close w.persist) prev;
    Pdms.Kwindex.reset ();
    Relalg.Stats.reset_cache ();
    Gc.compact ();
    let samples () = List.init setup_samples (fun _ -> Speed.sample ()) in
    let before = samples () in
    let ms, w = timed (fun () -> World.setup spec ~seed ~dir) in
    let setups = (ms, Speed.factor (before @ samples ())) :: setups in
    let n = List.length setups
    and spent_s = List.fold_left (fun a (ms, _) -> a +. ms) 0. setups /. 1000. in
    if ops <> None || n >= max_setups || (n >= min_setups && spent_s >= setup_budget_s)
    then (setups, w)
    else set_up setups (Some w)
  in
  let setups, w = set_up [] None in
  let digest = verify_prefix t w in
  let half = Int64.of_float (seconds *. 1e9 /. if trace then 2. else 1.) in
  let until start =
    match ops with Some n -> Ops n | None -> Window { start; length = half }
  in
  let gc0 = Gc.quick_stat () in
  loop (until (now_ns ()))
    ~sample:(fun b ->
      Hashtbl.replace t.speed b
        (Speed.sample () :: Option.value ~default:[] (Hashtbl.find_opt t.speed b)))
    ~on_block:(restart t w) ~step:(serve t w);
  let gc1 = Gc.quick_stat () in
  let timed_ops = List.length t.timeline in
  if trace then begin
    let sink = Obs.Sink.memory () in
    let tr = Obs.Trace.create sink in
    loop (until (now_ns ()))
      ~sample:(fun _ -> t.traced_speed <- Speed.sample () :: t.traced_speed)
      ~on_block:(fun _ -> traced_restart t w)
      ~step:(fun _ -> replay t w tr sink)
  end;
  check_final t w;
  check_durable t w;
  let m = { setups; ops = timed_ops; gc0; gc1 } in
  let metrics =
    if trace then List.map (fun (name, unit, v) -> (name, v, unit)) (per_layer t m)
    else List.map2 (fun (name, unit) v -> (name, v, unit)) end_to_end (e2e_values t m)
  in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then problem t "metric %s was not measured" name)
    metrics;
  let profile =
    Hashtbl.fold (fun path (calls, ms) acc -> (path, calls, ms) :: acc) t.profile []
    |> List.sort compare
  in
  {
    workload = spec.name;
    digest;
    correct = t.problems = [];
    attempted = t.attempted;
    failed = t.failed;
    metrics;
    problems = List.rev t.problems;
    errors = List.rev t.errors;
    profile;
    counts = List.map (fun k -> (kind_name k, List.length (latencies t.timeline k))) kinds;
    factors =
      ( Speed.factor (window_samples t),
        List.fold_left (fun a (_, f) -> a +. f) 0. setups /. float_of_int (List.length setups) );
  }

let json_line r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Num (if Float.is_finite v then v else 0.));
                        ("unit", Json.Str unit) ] ))
                r.metrics) ) ])

(* Self time of each span path, as a share of its op kind's traced
   time; the root row of each kind is the unattributed remainder. *)
let print_profile r =
  let root_of path =
    match String.index_opt path '/' with Some i -> String.sub path 0 i | None -> path
  in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (path, _, ms) ->
      let root = root_of path in
      Hashtbl.replace totals root (ms +. Option.value ~default:0. (Hashtbl.find_opt totals root)))
    r.profile;
  List.iter
    (fun (path, calls, ms) ->
      let root = root_of path in
      let share = 100. *. ratio ms (Hashtbl.find totals root) in
      Printf.printf "layer %-34s calls %7d  self %10.3f ms  %5.1f%% of %s%s\n" path calls ms
        share root (if String.contains path '/' then "" else " (unattributed)"))
    r.profile

let print r =
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) r.problems;
  List.iter (fun e -> Printf.printf "op failed: %s\n" e) r.errors;
  print_profile r;
  List.iter (fun (k, n) -> Printf.printf "samples %s %s %d\n" r.workload k n) r.counts;
  Printf.printf "reference %s window %.4f set-up %.4f (times below are at nominal speed)\n"
    r.workload (fst r.factors) (snd r.factors);
  List.iter
    (fun (name, v, unit) -> Printf.printf "metric %s %s %s %s\n" r.workload name (Json.number v) unit)
    r.metrics
