(* Incremental inverted index over stored relations.

   One entry per relation, keyed on {!Relalg.Relation.uid} and guarded
   by {!Relalg.Relation.version} — the same discipline as
   {!Relalg.Stats} and the token memo this module replaces, except the
   store evicts a single least-recently-used entry on overflow instead
   of dumping everything (a reset would force a thundering rebuild of
   every live relation on the next search).

   Since the delta pipeline landed, a stale entry is {e patched} from
   the relation's retained {!Relalg.Relation.deltas_since} instead of
   rebuilt: removed tuples are tombstoned (their slot stays, marked
   dead, their postings spliced out) and inserted tuples take fresh
   ascending slots, so postings stay id-ascending without renumbering.
   A full rebuild happens only on a cold entry or when the delta log
   was truncated past the cached version (counted in
   [pdms.delta.rebuild_fallbacks]).

   Byte-identity with scoring every tuple by [vectorize] and [cosine]
   is load-bearing: the index must produce the same hit lists as that
   scan, bit for bit. Three invariants keep it:
   - per-tuple term frequencies are accumulated with the same
     [+. 1.0] folds as {!Util.Tfidf.vectorize} and stored in ascending
     token order, so norms fold in the exact op order of [vectorize];
   - a tuple's weight is computed as [(tf *. idf) /. norm] — the two
     rounding steps [vectorize] performs, in the same order;
   - [probe] walks the query vector in ascending token order, so each
     candidate's partial dot products arrive in the order
     {!Util.Tfidf.cosine}'s merge would add them.
   Document frequencies merge as exact integer counts; converting with
   [float_of_int] equals [build]'s repeated [+. 1.0] for any count
   below 2^53.

   Patching preserves all three: live docs keep their tf vectors
   bit-for-bit, df counts stay exact integers ([len] per posting), and
   candidate enumeration stays ascending by slot — dead slots are
   simply skipped, so the relative order of live docs (hence every
   Topk tie-break) equals a compacting rebuild's. *)

module Smap = Map.Make (String)

type posting = {
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(* [ids.(0 .. len-1)] ascending live slot ids; [tfs.(i)] is the term
   frequency of the token in slot [ids.(i)].  Arrays are capacities —
   only the first [len] cells are meaningful. *)

type entry = {
  uid : int;
  mutable version : int;
  peer : string;
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
  mutable token_tfs : (string * float) array array;
      (* per slot, ascending token order; [[||]] on dead slots *)
  mutable live : bool array;
  mutable n_slots : int;
  postings : (string, posting) Hashtbl.t;
  mutable doc_count : int;  (* live slots *)
  mutable norms : (int * float array * float) option;
      (* (corpus stamp, per-slot norm, min positive norm) *)
  mutable last_used : int;
}

type probe = {
  source : entry;
  scores : float array;
  candidates : int array;
  bound : float;
}

let m_builds = Obs.Metrics.counter "pdms.kwindex.builds"
let m_postings = Obs.Metrics.counter "pdms.kwindex.postings"
let m_df_merges = Obs.Metrics.counter "pdms.kwindex.df_merges"
let h_posting_len = Obs.Metrics.histogram "pdms.kwindex.posting_len"
let m_patched = Obs.Metrics.counter "pdms.delta.patched_postings"
let m_fallbacks = Obs.Metrics.counter "pdms.delta.rebuild_fallbacks"

let tuple_tokens tuple =
  Array.to_list tuple
  |> List.concat_map (fun v -> Util.Tokenize.words (Relalg.Value.to_string v))
  |> List.map Util.Stemmer.stem

(* The tf map fold below is shared verbatim between [build] and
   [add_doc] — same op order, same rounding. *)
let tuple_tfs tuple =
  let tf =
    List.fold_left
      (fun acc tok ->
        Smap.update tok
          (function None -> Some 1.0 | Some x -> Some (x +. 1.0))
          acc)
      Smap.empty (tuple_tokens tuple)
  in
  Array.of_list (Smap.bindings tf)

let build ?(metrics = true) ~rel_name rel =
  let peer =
    match Distributed.owner_of_pred rel_name with Some p -> p | None -> ""
  in
  let tuples = Array.of_list (Relalg.Relation.tuples rel) in
  let token_tfs = Array.map tuple_tfs tuples in
  let acc : (string, (int * float) list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun id tfs ->
      Array.iter
        (fun (tok, tf) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt acc tok) in
          Hashtbl.replace acc tok ((id, tf) :: prev))
        tfs)
    token_tfs;
  let postings = Hashtbl.create (max 16 (Hashtbl.length acc)) in
  Hashtbl.iter
    (fun tok rev ->
      let l = List.rev rev in
      let ids = Array.of_list (List.map fst l) in
      let tfs = Array.of_list (List.map snd l) in
      let max_tf = Array.fold_left Float.max 0.0 tfs in
      if metrics then
        Obs.Metrics.observe h_posting_len (float_of_int (Array.length ids));
      Hashtbl.replace postings tok { ids; tfs; len = Array.length ids; max_tf })
    acc;
  if metrics then begin
    Obs.Metrics.incr m_builds;
    Obs.Metrics.add m_postings (Hashtbl.length postings)
  end;
  let n = Array.length tuples in
  {
    uid = Relalg.Relation.uid rel;
    version = Relalg.Relation.version rel;
    peer;
    rel_name;
    tuples;
    token_tfs;
    live = Array.make (max 1 n) true;
    n_slots = n;
    postings;
    doc_count = n;
    norms = None;
    last_used = 0;
  }

(* {2 Delta patching}  (caller holds [lock]) *)

let tuple_equal a b =
  Array.length a = Array.length b && Array.for_all2 Relalg.Value.equal a b

let find_live_slot e tuple =
  let rec go i =
    if i >= e.n_slots then None
    else if e.live.(i) && tuple_equal e.tuples.(i) tuple then Some i
    else go (i + 1)
  in
  go 0

(* Tombstone the lowest live slot holding [tuple]: splice its id out of
   every posting it appears in (recomputing max_tf by scan) and blank
   its tf vector so norms see a zero-norm dead doc. *)
let remove_doc e touched tuple =
  match find_live_slot e tuple with
  | None -> ()
  | Some slot ->
      Array.iter
        (fun (tok, _) ->
          Hashtbl.replace touched tok ();
          match Hashtbl.find_opt e.postings tok with
          | None -> ()
          | Some p ->
              let j = ref (-1) in
              for i = 0 to p.len - 1 do
                if p.ids.(i) = slot then j := i
              done;
              if !j >= 0 then begin
                for i = !j to p.len - 2 do
                  p.ids.(i) <- p.ids.(i + 1);
                  p.tfs.(i) <- p.tfs.(i + 1)
                done;
                p.len <- p.len - 1;
                if p.len = 0 then Hashtbl.remove e.postings tok
                else begin
                  let m = ref 0.0 in
                  for i = 0 to p.len - 1 do
                    m := Float.max !m p.tfs.(i)
                  done;
                  p.max_tf <- !m
                end
              end)
        e.token_tfs.(slot);
      e.token_tfs.(slot) <- [||];
      e.live.(slot) <- false;
      e.doc_count <- e.doc_count - 1

(* Append [tuple] at a fresh slot; since the new slot id exceeds every
   existing one, pushing it onto each posting keeps ids ascending. *)
let add_doc e touched tuple =
  let tfs = tuple_tfs tuple in
  let slot = e.n_slots in
  if slot >= Array.length e.tuples then begin
    let cap = max 4 (2 * Array.length e.tuples) in
    let grow blank a =
      let a' = Array.make cap blank in
      Array.blit a 0 a' 0 e.n_slots;
      a'
    in
    e.tuples <- grow [||] e.tuples;
    e.token_tfs <- grow [||] e.token_tfs;
    e.live <- grow false e.live
  end;
  e.tuples.(slot) <- tuple;
  e.token_tfs.(slot) <- tfs;
  e.live.(slot) <- true;
  e.n_slots <- e.n_slots + 1;
  e.doc_count <- e.doc_count + 1;
  Array.iter
    (fun (tok, tf) ->
      Hashtbl.replace touched tok ();
      match Hashtbl.find_opt e.postings tok with
      | Some p ->
          if p.len >= Array.length p.ids then begin
            let cap = max 4 (2 * Array.length p.ids) in
            let ids' = Array.make cap 0 in
            Array.blit p.ids 0 ids' 0 p.len;
            p.ids <- ids';
            let tfs' = Array.make cap 0.0 in
            Array.blit p.tfs 0 tfs' 0 p.len;
            p.tfs <- tfs'
          end;
          p.ids.(p.len) <- slot;
          p.tfs.(p.len) <- tf;
          p.len <- p.len + 1;
          p.max_tf <- Float.max p.max_tf tf
      | None ->
          Hashtbl.replace e.postings tok
            { ids = [| slot |]; tfs = [| tf |]; len = 1; max_tf = tf })
    tfs

let patch ~metrics e rel deltas =
  let touched = Hashtbl.create 16 in
  List.iter
    (fun d ->
      List.iter (remove_doc e touched) (Relalg.Relation.Delta.dels d);
      List.iter (add_doc e touched) (Relalg.Relation.Delta.adds d))
    deltas;
  e.version <- Relalg.Relation.version rel;
  e.norms <- None;
  if metrics then Obs.Metrics.add m_patched (Hashtbl.length touched)

(* uid -> entry. Bounded; overflow evicts the single least-recently-used
   entry (O(store) scan, paid only at the cap). *)
let store : (int, entry) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()
let max_entries = 1024
let tick = ref 0

(* Caller holds [lock]. *)
let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun uid e acc ->
        match acc with
        | Some (_, lu) when lu <= e.last_used -> acc
        | _ -> Some (uid, e.last_used))
      store None
  in
  match victim with Some (uid, _) -> Hashtbl.remove store uid | None -> ()

let get ?(metrics = true) ~rel_name rel =
  let uid = Relalg.Relation.uid rel in
  let version = Relalg.Relation.version rel in
  Mutex.lock lock;
  incr tick;
  let now = !tick in
  let cached =
    match Hashtbl.find_opt store uid with
    | Some e when e.version = version ->
        e.last_used <- now;
        Some e
    | Some e -> (
        (* Stale entry: patch from the retained deltas under the lock —
           concurrent searches sharing the store serialise their index
           refresh here instead of racing on duplicate rebuilds. *)
        match Relalg.Relation.deltas_since rel e.version with
        | Some ds ->
            patch ~metrics e rel ds;
            e.last_used <- now;
            Some e
        | None ->
            if metrics then Obs.Metrics.incr m_fallbacks;
            None)
    | None -> None
  in
  Mutex.unlock lock;
  match cached with
  | Some e -> (e, false)
  | None ->
      (* Build outside the lock: racing searches may both scan the
         relation, but they write identical entries. *)
      let e = build ~metrics ~rel_name rel in
      e.last_used <- now;
      Mutex.lock lock;
      if (not (Hashtbl.mem store uid)) && Hashtbl.length store >= max_entries
      then evict_lru ();
      Hashtbl.replace store uid e;
      Mutex.unlock lock;
      (e, true)

let store_size () =
  Mutex.lock lock;
  let n = Hashtbl.length store in
  Mutex.unlock lock;
  n

(* The global corpus depends on the reachable set (down peers change df
   and n per query), so it can't live in the per-relation entries. A
   one-slot memo keyed on the reachable [(uid, version)] list serves the
   repeated-search regime; each recompute mints a fresh stamp that
   invalidates the per-entry norm caches. *)
let stamp_counter = ref 0

let corpus_memo : ((int * int) list * int * Util.Tfidf.corpus) option ref =
  ref None

let corpus ?(metrics = true) entries =
  let key = List.map (fun e -> (e.uid, e.version)) entries in
  Mutex.lock lock;
  let memo = !corpus_memo in
  Mutex.unlock lock;
  match memo with
  | Some (k, stamp, c) when k = key -> (stamp, c)
  | _ ->
      let df : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      let n = ref 0 in
      List.iter
        (fun e ->
          n := !n + e.doc_count;
          Hashtbl.iter
            (fun tok p ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt df tok) in
              Hashtbl.replace df tok (prev + p.len))
            e.postings)
        entries;
      let counts = Hashtbl.fold (fun tok c acc -> (tok, c) :: acc) df [] in
      let c = Util.Tfidf.of_counts ~n:!n counts in
      Mutex.lock lock;
      incr stamp_counter;
      let stamp = !stamp_counter in
      corpus_memo := Some (key, stamp, c);
      Mutex.unlock lock;
      if metrics then Obs.Metrics.incr m_df_merges;
      (stamp, c)

let norms entry ~stamp c =
  match entry.norms with
  | Some (s, ns, mn) when s = stamp -> (ns, mn)
  | _ ->
      (* Dead slots carry [[||]] tf vectors, so they norm to 0.0 and
         stay out of the min below. *)
      let ns =
        Array.init entry.n_slots (fun id ->
            sqrt
              (Array.fold_left
                 (fun acc (tok, tf) ->
                   let w = tf *. Util.Tfidf.idf c tok in
                   acc +. (w *. w))
                 0.0
                 entry.token_tfs.(id)))
      in
      let mn =
        Array.fold_left
          (fun acc n -> if n > 0.0 && n < acc then n else acc)
          infinity ns
      in
      entry.norms <- Some (stamp, ns, mn);
      (ns, mn)

let probe entry ~stamp c query_vec =
  let ns, min_norm = norms entry ~stamp c in
  let scores = Array.make (max 1 entry.n_slots) 0.0 in
  let seen = Array.make (max 1 entry.n_slots) false in
  let touched = ref [] in
  let bound = ref 0.0 in
  List.iter
    (fun (tok, qw) ->
      match Hashtbl.find_opt entry.postings tok with
      | None -> ()
      | Some p ->
          let idf = Util.Tfidf.idf c tok in
          (* Every true per-token contribution is dominated term-wise
             by [qw *. ((max_tf *. idf) /. min_norm)]; round-to-nearest
             is monotone, so the accumulated bound dominates every
             candidate's final score. *)
          bound := !bound +. (qw *. ((p.max_tf *. idf) /. min_norm));
          for i = 0 to p.len - 1 do
            let id = p.ids.(i) in
            let w = (p.tfs.(i) *. idf) /. ns.(id) in
            scores.(id) <- scores.(id) +. (qw *. w);
            if not seen.(id) then begin
              seen.(id) <- true;
              touched := id :: !touched
            end
          done)
    query_vec;
  let candidates = Array.of_list (List.sort Int.compare !touched) in
  { source = entry; scores; candidates; bound = !bound }

let reset () =
  Mutex.lock lock;
  Hashtbl.reset store;
  corpus_memo := None;
  tick := 0;
  Mutex.unlock lock
