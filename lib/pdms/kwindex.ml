(* Incremental inverted index over stored relations.

   One entry per relation, held in the relation's own
   {!Relalg.Relation.Derived} slot like {!Relalg.Stats}, so it lives
   and dies with the relation.

   A stale entry is {e patched} from the effective deltas queued on its
   slot instead of rebuilt: removed tuples are tombstoned (their slot
   stays, marked dead, their postings spliced out) and inserted tuples
   take fresh ascending slots, so postings stay id-ascending without
   renumbering.  Once tombstones exceed a quarter of the live slots,
   the patch compacts the entry: live slots move down in order, posting
   ids are renumbered through the same monotone map, and dead tuples
   and token ids are dropped.  A full rebuild happens only on a cold
   entry, or on one dropped by a clear or by a queue that passed its
   bounds (counted in [pdms.delta.rebuild_fallbacks]).

   A search after a write pays for the write, not the corpus.  Each
   patch logs the tokens it touched, keyed by the entry version it
   started from, so the one-slot corpus memo can recount df for those
   tokens alone when the reachable entries are the same objects;
   anything else is a full merge.  A patched
   corpus with an unchanged [n] remembers its parent stamp and changed
   tokens, and an entry whose weights were built at the parent, and
   which was not patched since, refreshes only the idf of those tokens
   and the norms of the slots holding them.

   Byte-identity with scoring every tuple by [vectorize] and [cosine]
   is load-bearing: the index must produce the same hit lists as that
   scan, bit for bit. Three invariants keep it:
   - per-tuple term frequencies are accumulated with the same
     [+. 1.0] folds as {!Util.Tfidf.vectorize} and stored in ascending
     token order, so norms fold in the exact op order of [vectorize];
   - a tuple's weight is computed as [(tf *. idf) /. norm] — the two
     rounding steps [vectorize] performs, in the same order;
   - [find] keeps the query vector's ascending token order and
     [score_into] walks it in that order, so each candidate's partial
     dot products arrive in the order {!Util.Tfidf.cosine}'s merge
     would add them — into a fresh zero array ([probe]) or a reused
     one that is all zero again (a search's buffer), the same sums.
   Document frequencies merge as exact integer counts; converting with
   [float_of_int] equals [build]'s repeated [+. 1.0] for any count
   below 2^53.

   Patching preserves all three: live docs keep their tf vectors
   bit-for-bit, df counts stay exact integers ([len] per posting), and
   candidate enumeration stays ascending by slot — dead slots are
   simply skipped, and compaction keeps live slots in their relative
   order, so the order of live docs (hence every Topk tie-break)
   equals a rebuild's.

   Refreshing only some norms preserves them too.  A slot's norm
   depends only on its tf vector and its tokens' idf, and a token's
   idf only on [(n, df[tok])].  A patched corpus recounts df for every
   token a patch touched (a superset of those whose df moved) and
   copies the rest, so with [n] unchanged every other token's idf is
   the same float; recomputing exactly the slots that hold a recounted
   token (every slot when [n] moved, or when the entry itself was
   patched) therefore reproduces a full recompute bit for bit. *)

module Smap = Map.Make (String)

type posting = {
  tok : string;
  mutable tid : int;
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(* [ids.(0 .. len-1)] ascending live slot ids; [tfs.(i)] is the term
   frequency of [tok] in slot [ids.(i)].  Arrays are capacities — only
   the first [len] cells are meaningful.  [tid] indexes the entry's
   [posts] and every [weights.idf]. *)

type weights = {
  w_stamp : int;
  w_version : int;  (* the entry version they were computed at *)
  idf : float array;  (* by token id *)
  norms : float array;  (* by slot; 0.0 on dead slots *)
  min_norm : float;  (* least positive norm *)
}
(* Immutable once published: a search on another stamp may still be
   reading the value this one replaces. *)

type entry = {
  mutable version : int;
  peer : string;
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
  mutable slot_tids : int array array;
      (* per slot, token ids in ascending token order; [[||]] on dead slots *)
  mutable slot_tfs : float array array;  (* parallel to [slot_tids] *)
  mutable live : bool array;
  mutable n_slots : int;
  postings : (string, posting) Hashtbl.t;
  mutable posts : posting array;  (* token id -> posting; [len = 0] once gone *)
  mutable n_tids : int;
  mutable doc_count : int;  (* live slots *)
  mutable weights : weights option;
  mutable patch_log : (int * string list) list;
      (* newest first: (version a patch started from, tokens it touched) *)
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
let m_df_patches = Obs.Metrics.counter "pdms.kwindex.df_patches"
let h_posting_len = Obs.Metrics.histogram "pdms.kwindex.posting_len"
let m_patched = Obs.Metrics.counter "pdms.delta.patched_postings"

let tuple_tokens tuple =
  Array.to_list tuple
  |> List.concat_map (fun v -> Util.Tokenize.words (Relalg.Value.to_string v))
  |> List.map Util.Stemmer.stem

(* The same [+. 1.0] fold as {!Util.Tfidf.vectorize}, in ascending
   token order. *)
let tuple_tfs tuple =
  let tf =
    List.fold_left
      (fun acc tok ->
        Smap.update tok
          (function None -> Some 1.0 | Some x -> Some (x +. 1.0))
          acc)
      Smap.empty (tuple_tokens tuple)
  in
  Smap.bindings tf

let slot_tokens e id =
  let tfs = e.slot_tfs.(id) in
  Array.to_list
    (Array.mapi (fun i tid -> (e.posts.(tid).tok, tfs.(i))) e.slot_tids.(id))

let grow blank a len =
  let a' = Array.make (max 4 (2 * Array.length a)) blank in
  Array.blit a 0 a' 0 len;
  a'

(* {2 Delta patching}  (under the derived-state lock, or on an [e] the
   caller owns alone) *)

let find_live_slot e tuple =
  let rec go i =
    if i >= e.n_slots then None
    else if e.live.(i) && Relalg.Relation.tuple_equal e.tuples.(i) tuple then
      Some i
    else go (i + 1)
  in
  go 0

(* Tombstone the lowest live slot holding [tuple]: splice its id out of
   every posting it appears in (recomputing max_tf by scan), drop the
   tuple, and blank its tf vector so norms see a zero-norm dead doc. *)
let remove_doc e note tuple =
  match find_live_slot e tuple with
  | None -> ()
  | Some slot ->
      Array.iter
        (fun tid ->
          let p = e.posts.(tid) in
          note p.tok;
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
            if p.len = 0 then Hashtbl.remove e.postings p.tok
            else begin
              let m = ref 0.0 in
              for i = 0 to p.len - 1 do
                m := Float.max !m p.tfs.(i)
              done;
              p.max_tf <- !m
            end
          end)
        e.slot_tids.(slot);
      e.tuples.(slot) <- [||];
      e.slot_tids.(slot) <- [||];
      e.slot_tfs.(slot) <- [||];
      e.live.(slot) <- false;
      e.doc_count <- e.doc_count - 1

let posting_for e tok =
  match Hashtbl.find_opt e.postings tok with
  | Some p -> p
  | None ->
      let p =
        { tok; tid = e.n_tids; ids = [||]; tfs = [||]; len = 0; max_tf = 0.0 }
      in
      if e.n_tids >= Array.length e.posts then
        e.posts <- grow p e.posts e.n_tids;
      e.posts.(e.n_tids) <- p;
      e.n_tids <- e.n_tids + 1;
      Hashtbl.replace e.postings tok p;
      p

(* Append [tuple] at a fresh slot; since the new slot id exceeds every
   existing one, pushing it onto each posting keeps ids ascending. *)
let add_doc e note tuple =
  let tfs = tuple_tfs tuple in
  let slot = e.n_slots in
  if slot >= Array.length e.tuples then begin
    e.tuples <- grow [||] e.tuples slot;
    e.slot_tids <- grow [||] e.slot_tids slot;
    e.slot_tfs <- grow [||] e.slot_tfs slot;
    e.live <- grow false e.live slot
  end;
  let k = List.length tfs in
  let tids = Array.make k 0 and tf_arr = Array.make k 0.0 in
  List.iteri
    (fun i (tok, tf) ->
      note tok;
      let p = posting_for e tok in
      if p.len >= Array.length p.ids then begin
        p.ids <- grow 0 p.ids p.len;
        p.tfs <- grow 0.0 p.tfs p.len
      end;
      p.ids.(p.len) <- slot;
      p.tfs.(p.len) <- tf;
      p.len <- p.len + 1;
      p.max_tf <- Float.max p.max_tf tf;
      tids.(i) <- p.tid;
      tf_arr.(i) <- tf)
    tfs;
  e.tuples.(slot) <- tuple;
  e.slot_tids.(slot) <- tids;
  e.slot_tfs.(slot) <- tf_arr;
  e.live.(slot) <- true;
  e.n_slots <- e.n_slots + 1;
  e.doc_count <- e.doc_count + 1

(* Drop dead slots and gone token ids, keeping live slots (and token
   ids) in their relative order: slot [i] moves to the number of live
   slots below it, a monotone map, so postings stay ascending and every
   enumeration order a rebuild would see is kept.  Arrays come out
   trimmed to their contents. *)
let compact e =
  let slot_map = Array.make e.n_slots (-1) in
  let live = ref 0 in
  for i = 0 to e.n_slots - 1 do
    if e.live.(i) then begin
      slot_map.(i) <- !live;
      incr live
    end
  done;
  let tid_map = Array.make e.n_tids (-1) in
  let n_tids = ref 0 in
  for t = 0 to e.n_tids - 1 do
    if e.posts.(t).len > 0 then begin
      tid_map.(t) <- !n_tids;
      incr n_tids
    end
  done;
  let posts = if !n_tids = 0 then [||] else Array.make !n_tids e.posts.(0) in
  for t = 0 to e.n_tids - 1 do
    let p = e.posts.(t) in
    if p.len > 0 then begin
      p.tid <- tid_map.(t);
      p.ids <- Array.init p.len (fun i -> slot_map.(p.ids.(i)));
      p.tfs <- Array.sub p.tfs 0 p.len;
      posts.(p.tid) <- p
    end
  done;
  let keep blank a f =
    let a' = Array.make (max 1 !live) blank in
    for i = 0 to e.n_slots - 1 do
      if slot_map.(i) >= 0 then a'.(slot_map.(i)) <- f a.(i)
    done;
    a'
  in
  e.tuples <- keep [||] e.tuples Fun.id;
  e.slot_tids <- keep [||] e.slot_tids (Array.map (fun t -> tid_map.(t)));
  e.slot_tfs <- keep [||] e.slot_tfs Fun.id;
  e.live <- Array.make (max 1 !live) true;
  e.n_slots <- !live;
  e.posts <- posts;
  e.n_tids <- !n_tids

(* Patches whose touched tokens an entry remembers: enough for the
   corpus memo to catch up over several writes between searches. *)
let patch_log_cap = 16

let patch rel e deltas =
  let touched = Hashtbl.create 16 in
  let note tok = Hashtbl.replace touched tok () in
  List.iter
    (fun d ->
      List.iter (remove_doc e note) (Relalg.Relation.Delta.dels d);
      List.iter (add_doc e note) (Relalg.Relation.Delta.adds d))
    deltas;
  let toks = Hashtbl.fold (fun tok () acc -> tok :: acc) touched [] in
  e.patch_log <-
    List.filteri
      (fun i _ -> i < patch_log_cap)
      ((e.version, toks) :: e.patch_log);
  e.version <- Relalg.Relation.version rel;
  if 4 * (e.n_slots - e.doc_count) > e.doc_count then compact e;
  Obs.Metrics.add m_patched (Hashtbl.length touched);
  e

(* The tokens [e]'s patches touched since version [v], or [None] when
   its log no longer reaches back that far. *)
let tokens_since e v =
  let rec go acc = function
    | [] -> None
    | (from, toks) :: older ->
        let acc = List.rev_append toks acc in
        if from = v then Some acc else go acc older
  in
  if v = e.version then Some [] else go [] e.patch_log

let build ~rel_name rel =
  let peer =
    match Distributed.owner_of_pred rel_name with Some p -> p | None -> ""
  in
  let tuples = Array.of_list (Relalg.Relation.tuples rel) in
  let n = Array.length tuples in
  let e =
    {
      version = Relalg.Relation.version rel;
      peer;
      rel_name;
      tuples;
      slot_tids = Array.make n [||];
      slot_tfs = Array.make n [||];
      live = Array.make (max 1 n) true;
      n_slots = 0;
      postings = Hashtbl.create (max 16 n);
      posts = [||];
      n_tids = 0;
      doc_count = 0;
      weights = None;
      patch_log = [];
    }
  in
  Array.iter (add_doc e ignore) tuples;
  for t = 0 to e.n_tids - 1 do
    let p = e.posts.(t) in
    p.ids <- Array.sub p.ids 0 p.len;
    p.tfs <- Array.sub p.tfs 0 p.len;
    Obs.Metrics.observe h_posting_len (float_of_int p.len)
  done;
  Obs.Metrics.incr m_builds;
  Obs.Metrics.add m_postings e.n_tids;
  e

let kind : entry Relalg.Relation.Derived.kind = Relalg.Relation.Derived.kind ()

let get ~rel_name rel =
  let built = ref false in
  let e =
    Relalg.Relation.Derived.get kind rel
      ~build:(fun rel ->
        built := true;
        build ~rel_name rel)
      ~patch
  in
  (e, !built)

(* The global corpus depends on the reachable set (down peers change df
   and n per query), so it can't live in the per-relation entries. A
   one-slot memo over the reachable entries and their versions serves
   the repeated-search regime; each new corpus mints a fresh stamp that
   the per-entry weights are keyed on.  [parent] is set when the corpus
   was patched from the memo before it with [n] unchanged: its stamp
   and the tokens whose df was recounted. *)
type memo = {
  key : (entry * int) list;  (* reachable entries, each at its version *)
  stamp : int;
  corpus : Util.Tfidf.corpus;
  parent : (int * string list) option;
}

let memo : memo option Atomic.t = Atomic.make None
let stamps = Atomic.make 0

let full_merge entries =
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
  (Util.Tfidf.of_counts ~n:!n counts, None)

(* Every token a changed entry touched gets its df recounted over all
   reachable entries; every other token's count is unchanged since [m]
   was built, so it is kept as is. *)
let patch_merge m entries toks =
  let recount = Hashtbl.create 64 in
  List.iter (fun tok -> Hashtbl.replace recount tok ()) toks;
  let df tok =
    List.fold_left
      (fun acc e ->
        match Hashtbl.find_opt e.postings tok with
        | Some p -> acc + p.len
        | None -> acc)
      0 entries
  in
  let counts =
    Hashtbl.fold (fun tok () acc -> (tok, df tok) :: acc) recount []
  in
  let n = List.fold_left (fun acc e -> acc + e.doc_count) 0 entries in
  let parent =
    if n = Util.Tfidf.num_docs m.corpus then
      Some (m.stamp, List.map fst counts)
    else None
  in
  (Util.Tfidf.replace_counts m.corpus ~n counts, parent)

(* [Some toks] when [entries] are [key]'s very objects and each one that
   moved can name the tokens it touched since. *)
let rec changed_tokens acc key entries =
  match (key, entries) with
  | [], [] -> Some acc
  | (e0, v) :: key, e :: entries when e0 == e -> (
      match tokens_since e v with
      | Some toks -> changed_tokens (List.rev_append toks acc) key entries
      | None -> None)
  | _ -> None

let corpus entries =
  let key = List.map (fun e -> (e, e.version)) entries in
  let prev = Atomic.get memo in
  match prev with
  | Some m
    when List.equal (fun (e0, v0) (e, v) -> e0 == e && v0 = v) m.key key ->
      (m.stamp, m.corpus)
  | _ ->
      let patched =
        match prev with
        | Some m -> (
            match changed_tokens [] m.key entries with
            | Some toks -> Some (patch_merge m entries toks)
            | None -> None)
        | None -> None
      in
      let corpus, parent =
        match patched with
        | Some r ->
            Obs.Metrics.incr m_df_patches;
            r
        | None ->
            Obs.Metrics.incr m_df_merges;
            full_merge entries
      in
      let stamp = Atomic.fetch_and_add stamps 1 + 1 in
      Atomic.set memo (Some { key; stamp; corpus; parent });
      (stamp, corpus)

let slot_norm idf tids tfs =
  let acc = ref 0.0 in
  for i = 0 to Array.length tids - 1 do
    let w = tfs.(i) *. idf.(tids.(i)) in
    acc := !acc +. (w *. w)
  done;
  sqrt !acc

(* Dead slots carry empty tf vectors, so they norm to 0.0 and stay out
   of the minimum. *)
let min_positive ns =
  Array.fold_left
    (fun acc n -> if n > 0.0 && n < acc then n else acc)
    infinity ns

(* One idf per live token id, then every slot's norm. *)
let full_weights e ~stamp c =
  let idf = Array.make e.n_tids 0.0 in
  for t = 0 to e.n_tids - 1 do
    let p = e.posts.(t) in
    if p.len > 0 then idf.(t) <- Util.Tfidf.idf c p.tok
  done;
  let norms =
    Array.init e.n_slots (fun s ->
        slot_norm idf e.slot_tids.(s) e.slot_tfs.(s))
  in
  let min_norm = min_positive norms in
  { w_stamp = stamp; w_version = e.version; idf; norms; min_norm }

(* [w] is this entry's weights at [stamp]'s parent and [toks] the
   tokens recounted since: re-resolve those tokens' idf and re-norm the
   slots holding them, on copies. *)
let refresh_weights e w ~stamp c toks =
  match List.filter_map (Hashtbl.find_opt e.postings) toks with
  | [] -> { w with w_stamp = stamp }
  | held ->
      let idf = Array.copy w.idf and norms = Array.copy w.norms in
      List.iter (fun p -> idf.(p.tid) <- Util.Tfidf.idf c p.tok) held;
      List.iter
        (fun p ->
          for i = 0 to p.len - 1 do
            let s = p.ids.(i) in
            norms.(s) <- slot_norm idf e.slot_tids.(s) e.slot_tfs.(s)
          done)
        held;
      { w with w_stamp = stamp; idf; norms; min_norm = min_positive norms }

let weights e ~stamp c =
  match e.weights with
  | Some w when w.w_stamp = stamp -> w
  | prev ->
      let w =
        match (prev, Atomic.get memo) with
        | Some w, Some { stamp = s; parent = Some (from, toks); _ }
          when s = stamp && w.w_stamp = from && w.w_version = e.version ->
            refresh_weights e w ~stamp c toks
        | _ -> full_weights e ~stamp c
      in
      e.weights <- Some w;
      w

(* The entry's postings for the query's tokens, each with its query
   weight, in query-vector order; [[]] when it holds none of them. *)
let rec held postings = function
  | [] -> []
  | (tok, qw) :: rest -> (
      match Hashtbl.find_opt postings tok with
      | Some p -> (p, qw) :: held postings rest
      | None -> held postings rest)

type found = {
  f_weights : weights;
  f_runs : posting array;  (* the held postings, in query-vector order *)
  f_qws : float array;  (* each run's query weight *)
  f_pos : int array;  (* one merge cursor per run *)
  f_bound : float;
}

let find entry ~stamp c query_vec =
  let w = weights entry ~stamp c in
  let held = held entry.postings query_vec in
  let runs = Array.of_list (List.map fst held) in
  let qws = Array.of_list (List.map snd held) in
  (* Every true per-token contribution is dominated term-wise by
     [qw *. ((max_tf *. idf) /. min_norm)]; round-to-nearest is
     monotone, so the accumulated bound dominates every candidate's
     final score. *)
  let bound = ref 0.0 in
  for r = 0 to Array.length runs - 1 do
    let p = runs.(r) in
    bound := !bound +. (qws.(r) *. ((p.max_tf *. w.idf.(p.tid)) /. w.min_norm))
  done;
  {
    f_weights = w;
    f_runs = runs;
    f_qws = qws;
    f_pos = Array.make (Array.length runs) 0;
    f_bound = !bound;
  }

let bound f = f.f_bound

(* The least id under any cursor, with every cursor on it stepped past
   it; [max_int] once every run is spent. *)
let next_id runs pos =
  let m = ref max_int in
  for j = 0 to Array.length runs - 1 do
    let p = runs.(j) in
    if pos.(j) < p.len && p.ids.(pos.(j)) < !m then m := p.ids.(pos.(j))
  done;
  for j = 0 to Array.length runs - 1 do
    let p = runs.(j) in
    if pos.(j) < p.len && p.ids.(pos.(j)) = !m then pos.(j) <- pos.(j) + 1
  done;
  !m

(* The size of the ascending, duplicate-free union of the runs' ids:
   one run's length, or a merge through the cursors. *)
let candidate_count f =
  match f.f_runs with
  | [||] -> 0
  | [| p |] -> p.len
  | runs ->
      Array.fill f.f_pos 0 (Array.length runs) 0;
      let n = ref 0 in
      while next_id runs f.f_pos < max_int do
        incr n
      done;
      !n

(* That union itself: a copy of one run's first [len] cells, or the
   merge run again into an array of exactly the counted size. *)
let union_ids f =
  match f.f_runs with
  | [||] -> [||]
  | [| p |] -> Array.sub p.ids 0 p.len
  | runs ->
      let ids = Array.make (candidate_count f) 0 in
      Array.fill f.f_pos 0 (Array.length runs) 0;
      for i = 0 to Array.length ids - 1 do
        ids.(i) <- next_id runs f.f_pos
      done;
      ids

let score_into f scores =
  let w = f.f_weights in
  for r = 0 to Array.length f.f_runs - 1 do
    let p = f.f_runs.(r) and qw = f.f_qws.(r) in
    let idf = w.idf.(p.tid) in
    for i = 0 to p.len - 1 do
      let id = p.ids.(i) in
      let wt = (p.tfs.(i) *. idf) /. w.norms.(id) in
      scores.(id) <- scores.(id) +. (qw *. wt)
    done
  done;
  union_ids f

let probe entry ~stamp c query_vec =
  let f = find entry ~stamp c query_vec in
  if Array.length f.f_runs = 0 then
    { source = entry; scores = [||]; candidates = [||]; bound = 0.0 }
  else
    let scores = Array.make entry.n_slots 0.0 in
    let candidates = score_into f scores in
    { source = entry; scores; candidates; bound = f.f_bound }

let reset () =
  Relalg.Relation.Derived.reset kind;
  Atomic.set memo None
