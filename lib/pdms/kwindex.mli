(** Version-guarded, delta-patched inverted index for keyword search.

    One {!entry} per stored relation, keyed on {!Relalg.Relation.uid}
    and guarded by {!Relalg.Relation.version} (the {!Relalg.Stats}
    discipline): postings lists [token -> (slot_id, tf)], per-slot
    term-frequency vectors in ascending token order, and lazily
    computed per-slot norms.  When the relation's version moves, the
    entry is {e patched} from {!Relalg.Relation.deltas_since} — removed
    tuples are tombstoned in place (postings spliced, slot marked
    dead), inserted tuples take fresh ascending slots — counted in
    [pdms.delta.patched_postings].  A full reindex of the relation
    happens only on a cold entry or when the delta log was truncated
    past the cached version ([pdms.delta.rebuild_fallbacks]); the
    bounded store evicts its least-recently-used entry on overflow
    instead of resetting wholesale.  A from-scratch index of a relation
    is {!reset} followed by {!get}.

    Scoring through {!probe} is bit-identical to vectorizing every
    tuple and taking {!Util.Tfidf.cosine} against the query vector —
    term frequencies, norms, and partial dot products replay the exact
    floating-point op order of that scan, and patched
    entries preserve live-doc enumeration order (tie-breaks included)
    relative to a compacting rebuild (see the implementation header for
    the argument).  Hit lists therefore equal a full scan's, and a
    patched entry scores exactly as a rebuilt one.

    Instrumented with [pdms.kwindex.{builds,postings,df_merges}]
    counters and a [pdms.kwindex.posting_len] histogram; the search
    layer adds the per-query counters. *)

type posting = {
  mutable ids : int array;
  mutable tfs : float array;
  mutable len : int;
  mutable max_tf : float;
}
(** One token's postings within a relation: parallel arrays (capacity
    may exceed [len]; cells [0 .. len-1] are meaningful) of ascending
    live slot ids and term frequencies, plus the largest live tf
    (feeds the early-termination bound). *)

type entry = {
  uid : int;
  mutable version : int;  (** the relation version the entry reflects *)
  peer : string;  (** owner per {!Distributed.owner_of_pred}, "" if unqualified *)
  rel_name : string;
  mutable tuples : Relalg.Relation.tuple array;
      (** slot -> tuple; meaningful for slots [0 .. n_slots-1] *)
  mutable token_tfs : (string * float) array array;
      (** per slot: (token, tf) ascending by token; [[||]] on dead slots *)
  mutable live : bool array;  (** tombstone map over slots *)
  mutable n_slots : int;  (** allocated slots, live or dead *)
  postings : (string, posting) Hashtbl.t;
  mutable doc_count : int;  (** live slots only *)
  mutable norms : (int * float array * float) option;
      (** (corpus stamp, per-slot norms, min positive norm) — managed
          by {!probe}; treat as private *)
  mutable last_used : int;  (** LRU clock — managed by {!get} *)
}

type probe = {
  source : entry;
  scores : float array;  (** indexed by slot id; only candidates valid *)
  candidates : int array;  (** ascending live slot ids sharing >= 1 query token *)
  bound : float;
      (** upper bound on any candidate's score in this relation; if it
          cannot beat the current top-k floor the whole relation is
          skippable without changing the result *)
}

val tuple_tokens : Relalg.Relation.tuple -> string list
(** Tokenised + stemmed values of a tuple, in value order. *)

val get : ?metrics:bool -> rel_name:string -> Relalg.Relation.t -> entry * bool
(** [get ~rel_name rel] returns the index entry for [rel].  A cached
    entry at the current version is served as-is; a stale one is
    delta-patched under the store lock when the relation's delta log
    still reaches back — otherwise it is rebuilt from scratch.  The
    flag is [true] only when a full (re)build happened.  Thread-safe;
    concurrent searches serialise their patching on the store lock. *)

val corpus : ?metrics:bool -> entry list -> int * Util.Tfidf.corpus
(** [corpus entries] merges the per-relation df counts of the given
    (reachable) entries into a global corpus, memoised on the entries'
    [(uid, version)] list — repeated searches over an unchanged
    reachable set reuse it. Returns a stamp identifying the corpus;
    per-entry norm caches are keyed on it. *)

val probe :
  entry -> stamp:int -> Util.Tfidf.corpus -> Util.Tfidf.vector -> probe
(** [probe entry ~stamp corpus query_vec] accumulates partial dot
    products for the query's tokens over this relation's postings
    only. [query_vec] must be token-ascending (as
    {!Util.Tfidf.vectorize} output is). Computes and caches the
    entry's norms for [stamp] on first use — safe to call from
    parallel shards as long as each entry is probed by one shard. *)

val store_size : unit -> int
(** Number of relations currently indexed (bounded by {!max_entries}). *)

val max_entries : int
(** Store capacity; overflow evicts the least-recently-used entry. *)

val reset : unit -> unit
(** Drop every cached entry and the corpus memo (tests/benchmarks). *)
