(** Version-guarded, delta-patched inverted index for keyword search.

    One {!entry} per stored relation, kept in the relation's own
    {!Relalg.Relation.Derived} slot (as {!Relalg.Stats} is), so it
    lives and dies with the relation: postings lists
    [token -> (slot_id, tf)], per-slot term-frequency vectors over
    token ids in ascending token order, and lazily computed per-stamp
    weights (idf per token id, norm per slot).  When the relation
    changed since the last {!get}, the entry is {e patched} from the
    effective deltas queued on its slot — removed tuples are tombstoned
    in place (postings spliced, slot marked dead), inserted tuples take
    fresh ascending slots — counted in [pdms.delta.patched_postings].
    Once tombstones exceed a quarter of the live slots the patch
    compacts the entry stably (live slots keep their relative order,
    posting ids are renumbered monotonically, dead tuples are dropped),
    so an entry never holds more than [live + live / 4] slots after
    {!get}.  A full reindex of the relation happens only on a cold
    entry, or on one dropped by a [clear] or by a queue that passed its
    bounds ([pdms.delta.rebuild_fallbacks]); compaction is not one.  A
    from-scratch index of a relation is {!reset} followed by {!get}, or
    {!get} on a {!Relalg.Relation.copy}.

    A search after a write pays for the write, not the corpus.  Each
    patch logs the tokens it touched, so {!corpus} recounts df for
    those tokens only ([pdms.kwindex.df_patches]) when the reachable
    entries are the ones it last merged; anything else is a full merge
    ([pdms.kwindex.df_merges]).  When such a patch leaves [n]
    unchanged, an entry that was not itself patched re-norms only the
    slots holding a recounted token.

    A probe is two steps: {!find} looks up the query tokens' postings
    and sums the relation's score bound, and {!score_into} scores them
    into a caller-supplied, all-zero, slot-indexed array and merges the
    candidates, so a search can skip a relation on its bound without
    scoring it and reuse one array for every relation it scores.
    {!probe} is the two on a fresh array.  Scoring is bit-identical to
    vectorizing every tuple and taking {!Util.Tfidf.cosine} against the
    query vector — term frequencies, norms, and partial dot products
    replay the exact floating-point op order of that scan.  A slot's norm depends only
    on its tf vector and its tokens' idf, and idf only on
    [(n, df[tok])], so recomputing exactly the slots that hold a token
    whose df changed (every slot when [n] moved) reproduces a full
    recompute bit for bit.  Patched and compacted entries keep live
    docs in their relative order, so [Topk] tie-breaks equal a
    rebuild's (see the implementation header for the argument).  Hit
    lists therefore equal a full scan's, and a patched entry scores
    exactly as a rebuilt one.

    Instrumented with [pdms.kwindex.{builds,postings,df_merges,
    df_patches}] counters and a [pdms.kwindex.posting_len] histogram;
    the search layer adds the per-query counters. *)

type posting = {
  tok : string;
  mutable tid : int;  (** token id within the entry *)
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(** One token's postings within a relation: parallel arrays (capacity
    may exceed [len]; cells [0 .. len-1] are meaningful) of ascending
    live slot ids and term frequencies, plus the largest live tf
    (feeds the early-termination bound). *)

type weights
(** One entry's idf values and norms for one corpus stamp.  Published
    as a whole and never mutated, so concurrent searches on different
    stamps each read a consistent value. *)

type entry = {
  mutable version : int;  (** the relation version the entry reflects *)
  peer : string;
      (** owner per {!Distributed.owner_of_pred}, "" if unqualified *)
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
      (** slot -> tuple; meaningful for slots [0 .. n_slots-1] *)
  mutable slot_tids : int array array;
      (** per slot: token ids, ascending by token; [[||]] on dead slots
          (read through {!slot_tokens}) *)
  mutable slot_tfs : float array array;
      (** per slot: the tf of each of [slot_tids]' tokens *)
  mutable live : bool array;  (** tombstone map over slots *)
  mutable n_slots : int;  (** allocated slots, live or dead *)
  postings : (string, posting) Hashtbl.t;
  mutable posts : posting array;
      (** token id -> posting; a posting with [len = 0] is gone *)
  mutable n_tids : int;  (** token ids allocated *)
  mutable doc_count : int;  (** live slots only *)
  mutable weights : weights option;
      (** managed by {!probe}; treat as private *)
  mutable patch_log : (int * string list) list;
      (** recent patches, newest first: the version each started from
          and the tokens it touched — managed by {!get} *)
}

type probe = {
  source : entry;
  scores : float array;
      (** indexed by slot id; only candidates valid; [[||]] when there
          is no candidate *)
  candidates : int array;
      (** ascending live slot ids sharing >= 1 query token *)
  bound : float;
      (** upper bound on any candidate's score in this relation; if it
          cannot beat the current top-k floor the whole relation is
          skippable without changing the result *)
}

val tuple_tokens : Relalg.Relation.tuple -> string list
(** Tokenised + stemmed values of a tuple, in value order. *)

val slot_tokens : entry -> int -> (string * float) list
(** [slot_tokens e id] is slot [id]'s [(token, tf)] vector, ascending
    by token; [[]] on a dead slot. *)

val get : rel_name:string -> Relalg.Relation.t -> entry * bool
(** [get ~rel_name rel] returns the index entry for [rel].  An entry
    with no delta queued is served as-is; one with deltas queued is
    patched from them (and compacted when its tombstones pile up) under
    the derived-state lock; a cold or dropped one is built from
    scratch.  The flag is [true] only when a full (re)build happened.
    Thread-safe; concurrent searches serialise their patching on that
    lock. *)

val corpus : entry list -> int * Util.Tfidf.corpus
(** [corpus entries] merges the per-relation df counts of the given
    (reachable) entries into a global corpus, memoised on the entries
    (compared physically) and their versions — repeated searches over
    an unchanged reachable set reuse it.  When the entries are the
    very ones the memo merged and each that moved can name the tokens
    its patches touched, only those tokens' counts are recounted.
    Returns a stamp identifying the corpus; per-entry weights are
    keyed on it. *)

type found
(** One relation's postings for one query's tokens, with the weights
    they score under and the relation's score bound: what {!find}
    returns, the first of a probe's two steps. *)

val find :
  entry -> stamp:int -> Util.Tfidf.corpus -> Util.Tfidf.vector -> found
(** [find entry ~stamp corpus query_vec] is a probe's first step: it
    looks up the postings of the query's tokens and sums the bound
    [Σ qw·((max_tf·idf)/min_norm)] over them, touching no slot.
    [query_vec] must be token-ascending (as {!Util.Tfidf.vectorize}
    output is). Computes and caches the entry's weights for [stamp] on
    first use — from the previous stamp's when [stamp] patched it. *)

val bound : found -> float
(** Upper bound on any candidate's score in the relation, [0.0] when it
    holds none of the tokens; if it cannot beat the current top-k
    floor, the whole relation is skippable without changing the
    result. *)

val candidate_count : found -> int
(** How many candidates {!score_into} would return — the size of the
    union of the found postings' ids — counted without allocating. *)

val score_into : found -> float array -> int array
(** [score_into found scores] is a probe's second step: it adds each
    candidate's score into [scores], a slot-indexed array at least
    [n_slots] long, and returns the candidates — the ascending live
    slot ids sharing >= 1 query token, merged from the found postings'
    ascending id runs.  [scores] must be all zero on entry; only the
    candidates' cells are written, so zeroing those cells again makes
    it reusable for the next relation.  Scores are bit-identical to a
    fresh array's. *)

val probe :
  entry -> stamp:int -> Util.Tfidf.corpus -> Util.Tfidf.vector -> probe
(** [probe entry ~stamp corpus query_vec] is {!find} followed by
    {!score_into} on a fresh zero array of [n_slots] cells: it does
    work in proportion to the candidates the query's tokens hold, and a
    relation holding none of them gets empty [candidates] and [scores]
    and a [0.0] bound, with no array allocated.  Safe to call from
    several domains as long as each entry is probed by one of them. *)

val reset : unit -> unit
(** Make every relation's entry cold, so the next {!get} rebuilds it,
    and drop the corpus memo (tests/benchmarks). *)
