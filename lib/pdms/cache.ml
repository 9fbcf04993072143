(* Hash-backed LRU: a key -> entry hashtable for O(1) lookup, an
   intrusive doubly-linked recency list (head = most recent, tail =
   least) for O(1) touch/evict, and an inverted predicate -> entries
   index so [invalidate] visits only the affected entries. The seed
   stored entries in a list: O(n) lookup, O(n) eviction by minimum
   timestamp, O(n) invalidation. *)

type entry = {
  key : Cq.Query.t;  (* alpha-normalised query *)
  result : Answer.result;
  reads : string list;  (* stored predicates the rewritings mention *)
  mutable prev : entry option;  (* towards the most recently used *)
  mutable next : entry option;  (* towards the least recently used *)
}

type t = {
  catalog : Catalog.t;
  capacity : int;
  table : (Cq.Query.t, entry) Hashtbl.t;
  (* pred -> (key -> entry): which live entries read each predicate. *)
  by_pred : (string, (Cq.Query.t, entry) Hashtbl.t) Hashtbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable invalidated_count : int;
}

let m_hits = Obs.Metrics.counter "pdms.cache.hits"
let m_misses = Obs.Metrics.counter "pdms.cache.misses"
let m_evictions = Obs.Metrics.counter "pdms.cache.evictions"
let m_invalidated = Obs.Metrics.counter "pdms.cache.invalidated"
let m_kept = Obs.Metrics.counter "pdms.delta.cache_kept"

let create ?(capacity = 64) catalog () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    catalog;
    capacity;
    table = Hashtbl.create (min capacity 1024);
    by_pred = Hashtbl.create 64;
    mru = None;
    lru = None;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    invalidated_count = 0;
  }

(* Alpha-normalised key: queries equal up to variable renaming share an
   entry. The key is the renamed query itself, so constants compare by
   type and value ([Int 1] and [Str "1"] are different queries). *)
let key_of (q : Cq.Query.t) =
  let mapping = Hashtbl.create 8 in
  let rename = function
    | Cq.Term.Var x ->
        let x' =
          match Hashtbl.find_opt mapping x with
          | Some x' -> x'
          | None ->
              let x' = Printf.sprintf "v%d" (Hashtbl.length mapping) in
              Hashtbl.replace mapping x x';
              x'
        in
        Cq.Term.Var x'
    | Cq.Term.Const _ as c -> c
  in
  let head = Cq.Atom.map_terms rename q.Cq.Query.head in
  Cq.Query.make head (List.map (Cq.Atom.map_terms rename) q.Cq.Query.body)

let reads_of (result : Answer.result) =
  List.concat_map Cq.Query.body_preds result.Answer.outcome.Reformulate.rewritings
  |> List.sort_uniq String.compare

(* Recency-list surgery — all O(1). *)

let unlink t e =
  (match e.prev with
  | Some p -> p.next <- e.next
  | None -> t.mru <- e.next);
  (match e.next with
  | Some n -> n.prev <- e.prev
  | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some e | None -> ());
  t.mru <- Some e;
  match t.lru with None -> t.lru <- Some e | Some _ -> ()

let touch t e =
  match t.mru with
  | Some m when m == e -> ()
  | _ ->
      unlink t e;
      push_front t e

let remove t e =
  unlink t e;
  Hashtbl.remove t.table e.key;
  List.iter
    (fun pred ->
      match Hashtbl.find_opt t.by_pred pred with
      | None -> ()
      | Some bucket ->
          Hashtbl.remove bucket e.key;
          if Hashtbl.length bucket = 0 then Hashtbl.remove t.by_pred pred)
    e.reads

let add t e =
  push_front t e;
  Hashtbl.replace t.table e.key e;
  List.iter
    (fun pred ->
      let bucket =
        match Hashtbl.find_opt t.by_pred pred with
        | Some b -> b
        | None ->
            let b = Hashtbl.create 8 in
            Hashtbl.replace t.by_pred pred b;
            b
      in
      Hashtbl.replace bucket e.key e)
    e.reads

let answer ?(exec = Exec.default) t q =
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "cache.answer" @@ fun () ->
  let key = key_of q in
  match Hashtbl.find_opt t.table key with
  | Some e ->
      touch t e;
      t.hit_count <- t.hit_count + 1;
      Obs.Metrics.incr m_hits;
      Obs.Trace.attr_b trace "hit" true;
      e.result
  | None ->
      t.miss_count <- t.miss_count + 1;
      Obs.Metrics.incr m_misses;
      Obs.Trace.attr_b trace "hit" false;
      let result = Answer.answer ~exec t.catalog q in
      let entry =
        { key; result; reads = reads_of result; prev = None; next = None }
      in
      add t entry;
      if Hashtbl.length t.table > t.capacity then (
        match t.lru with
        | Some victim ->
            remove t victim;
            t.eviction_count <- t.eviction_count + 1;
            Obs.Metrics.incr m_evictions
        | None -> ());
      result

(* Can [tuple] ground [atom]'s argument pattern?  Constants must agree
   and repeated variables must bind consistently — a cheap one-atom
   unification. *)
let atom_matches (atom : Cq.Atom.t) tuple =
  List.length atom.Cq.Atom.args = Array.length tuple
  && begin
       let env = Hashtbl.create 4 in
       let rec go i = function
         | [] -> true
         | Cq.Term.Const c :: rest ->
             Relalg.Value.equal c tuple.(i) && go (i + 1) rest
         | Cq.Term.Var x :: rest -> (
             match Hashtbl.find_opt env x with
             | Some v -> Relalg.Value.equal v tuple.(i) && go (i + 1) rest
             | None ->
                 Hashtbl.replace env x tuple.(i);
                 go (i + 1) rest)
       in
       go 0 atom.Cq.Atom.args
     end

(* A cached answer can only change if some body atom over the touched
   relation unifies with some changed tuple; an entry where none does is
   provably unaffected and may be kept. *)
let entry_affected rel_name changed e =
  List.exists
    (fun (q : Cq.Query.t) ->
      List.exists
        (fun (a : Cq.Atom.t) ->
          String.equal a.Cq.Atom.pred rel_name
          && List.exists (atom_matches a) changed)
        q.Cq.Query.body)
    e.result.Answer.outcome.Reformulate.rewritings

let invalidate ?(exec = Exec.default) t (u : Updategram.t) =
  match Hashtbl.find_opt t.by_pred u.Updategram.rel with
  | None -> 0
  | Some bucket ->
      (* Snapshot first: [remove] mutates the bucket being folded. *)
      let changed = u.Updategram.deletes @ u.Updategram.inserts in
      let victims, kept =
        (* An empty updategram carries no tuples to probe against: it is
           a wildcard "this relation changed somehow" signal and drops
           every reader, as does the non-incremental baseline. *)
        if exec.Exec.incremental && changed <> [] then
          Hashtbl.fold
            (fun _ e (vs, ks) ->
              if entry_affected u.Updategram.rel changed e then (e :: vs, ks)
              else (vs, ks + 1))
            bucket ([], 0)
        else (Hashtbl.fold (fun _ e acc -> e :: acc) bucket [], 0)
      in
      List.iter (remove t) victims;
      if kept > 0 && exec.Exec.metrics then Obs.Metrics.add m_kept kept;
      let n = List.length victims in
      t.invalidated_count <- t.invalidated_count + n;
      Obs.Metrics.add m_invalidated n;
      n

let invalidate_all t =
  let n = Hashtbl.length t.table in
  Hashtbl.reset t.table;
  Hashtbl.reset t.by_pred;
  t.mru <- None;
  t.lru <- None;
  t.invalidated_count <- t.invalidated_count + n;
  Obs.Metrics.add m_invalidated n

let hits t = t.hit_count
let misses t = t.miss_count
let entries t = Hashtbl.length t.table

type stats = { hits : int; misses : int; evictions : int; invalidated : int }

let stats t =
  {
    hits = t.hit_count;
    misses = t.miss_count;
    evictions = t.eviction_count;
    invalidated = t.invalidated_count;
  }
