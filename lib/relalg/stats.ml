type t = { cardinality : int; distinct : int array }

(* Besides the published snapshot, the derived value keeps a per-column
   value -> occurrence-count table, so that a delta folds in without a
   rescan: a removal decrements the value's count and drops a distinct
   value exactly when the count hits zero; an insertion mirrors it. *)
type entry = { snapshot : t; counts : (Value.t, int) Hashtbl.t array }

let kind : entry Relation.Derived.kind = Relation.Derived.kind ()
let m_patched = Obs.Metrics.counter "pdms.delta.stats_patched"

let snapshot rel counts =
  {
    cardinality = Relation.cardinality rel;
    distinct = Array.map Hashtbl.length counts;
  }

let bump_row counts row delta =
  Array.iteri
    (fun i tbl ->
      let v = row.(i) in
      let next = delta + Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      if next <= 0 then Hashtbl.remove tbl v else Hashtbl.replace tbl v next)
    counts

let build rel =
  let arity = Schema.arity (Relation.schema rel) in
  let counts = Array.init arity (fun _ -> Hashtbl.create 64) in
  Relation.iter (fun row -> bump_row counts row 1) rel;
  { snapshot = snapshot rel counts; counts }

let patch rel e deltas =
  List.iter
    (fun d ->
      List.iter (fun row -> bump_row e.counts row (-1)) (Relation.Delta.dels d);
      List.iter (fun row -> bump_row e.counts row 1) (Relation.Delta.adds d))
    deltas;
  Obs.Metrics.incr m_patched;
  { e with snapshot = snapshot rel e.counts }

let of_relation rel = (Relation.Derived.get kind ~build ~patch rel).snapshot

let selectivity s col =
  if col < 0 || col >= Array.length s.distinct then 1.0
  else
    let d = s.distinct.(col) in
    if d <= 1 then 1.0 else 1.0 /. float_of_int d

let cache_hits () =
  let c = Relation.Derived.counts kind in
  c.hits + c.patches

let cache_misses () = (Relation.Derived.counts kind).builds
let cache_patches () = (Relation.Derived.counts kind).patches
let reset_cache () = Relation.Derived.reset kind
