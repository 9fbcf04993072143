type t = { cardinality : int; distinct : int array }

(* A cached entry keeps, besides the public snapshot, a per-column
   value -> occurrence-count table so that a delta (inserted / removed
   rows) can be folded in without rescanning: a removal decrements the
   value's count and drops a distinct value exactly when the count hits
   zero; an insertion mirrors it. *)
type entry = {
  mutable version : int;
  mutable cardinality : int;
  counts : (Value.t, int) Hashtbl.t array;  (* one table per column *)
}

(* uid -> entry. Entries for dead relations (dropped snapshots mint
   fresh uids) are harmless but unbounded, so the table is emptied once
   it passes a generous cap rather than tracked with a precise eviction
   policy. *)
let cache : (int, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let max_entries = 8192
let hits = ref 0
let misses = ref 0
let patches = ref 0

let m_patched = Obs.Metrics.counter "pdms.delta.stats_patched"
let m_fallbacks = Obs.Metrics.counter "pdms.delta.rebuild_fallbacks"

let compute rel =
  let arity = Schema.arity (Relation.schema rel) in
  let counts = Array.init arity (fun _ -> Hashtbl.create 64) in
  Relation.iter
    (fun row ->
      for i = 0 to arity - 1 do
        Hashtbl.replace counts.(i) row.(i)
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts.(i) row.(i)))
      done)
    rel;
  {
    version = Relation.version rel;
    cardinality = Relation.cardinality rel;
    counts;
  }

let bump_row counts row delta =
  Array.iteri
    (fun i tbl ->
      let v = row.(i) in
      let next = delta + Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      if next <= 0 then Hashtbl.remove tbl v else Hashtbl.replace tbl v next)
    counts

(* Caller holds [lock]. *)
let patch e rel deltas =
  List.iter
    (fun d ->
      List.iter (fun row -> bump_row e.counts row (-1)) (Relation.Delta.dels d);
      List.iter (fun row -> bump_row e.counts row 1) (Relation.Delta.adds d);
      e.cardinality <-
        e.cardinality
        - List.length (Relation.Delta.dels d)
        + List.length (Relation.Delta.adds d))
    deltas;
  e.version <- Relation.version rel

let snapshot e =
  { cardinality = e.cardinality; distinct = Array.map Hashtbl.length e.counts }

let of_relation rel =
  let uid = Relation.uid rel in
  let version = Relation.version rel in
  Mutex.lock lock;
  let served =
    match Hashtbl.find_opt cache uid with
    | Some e when e.version = version ->
        incr hits;
        Some (snapshot e)
    | Some e -> (
        (* Stale entry: try to fold the retained deltas in instead of
           rescanning. *)
        match Relation.deltas_since rel e.version with
        | Some ds ->
            patch e rel ds;
            incr hits;
            incr patches;
            Obs.Metrics.incr m_patched;
            Some (snapshot e)
        | None ->
            incr misses;
            Obs.Metrics.incr m_fallbacks;
            None)
    | None ->
        incr misses;
        None
  in
  Mutex.unlock lock;
  match served with
  | Some s -> s
  | None ->
      (* Scan outside the lock: concurrent planners may race to compute
         the same entry, but both scans see a consistent state (callers
         freeze relations before sharing them across domains) and write
         identical results. *)
      let e = compute rel in
      Mutex.lock lock;
      if Hashtbl.length cache >= max_entries then Hashtbl.reset cache;
      Hashtbl.replace cache uid e;
      let s = snapshot e in
      Mutex.unlock lock;
      s

let selectivity s col =
  if col < 0 || col >= Array.length s.distinct then 1.0
  else
    let d = s.distinct.(col) in
    if d <= 1 then 1.0 else 1.0 /. float_of_int d

let cache_hits () =
  Mutex.lock lock;
  let h = !hits in
  Mutex.unlock lock;
  h

let cache_misses () =
  Mutex.lock lock;
  let m = !misses in
  Mutex.unlock lock;
  m

let cache_patches () =
  Mutex.lock lock;
  let p = !patches in
  Mutex.unlock lock;
  p

let reset_cache () =
  Mutex.lock lock;
  Hashtbl.reset cache;
  hits := 0;
  misses := 0;
  patches := 0;
  Mutex.unlock lock
