(** Reference implementations for tests and benchmarks.

    The library has one implementation each of union answering, keyword
    search and derived-state maintenance.  This module keeps the
    straightforward versions they are checked and timed against: each
    rewriting evaluated on its own, every reachable tuple scored, and
    statistics counted in one uncached scan.  Results are the same as
    the library's — answer sets equal, hit lists bit-identical — only
    the work differs.

    A from-scratch inverted index needs no code here: it is
    {!Pdms.Kwindex.reset} followed by {!Pdms.Kwindex.get}. *)

val per_rewriting_union :
  Relalg.Database.t -> Cq.Query.t list -> Relalg.Relation.t
(** [per_rewriting_union db qs] evaluates each rewriting separately
    with {!Cq.Eval.run_union_into} into one relation, deduplicating
    across rewritings.  Its answer set equals {!Pdms.Answer.eval_union}'s
    shared-prefix trie walk.  Raises [Invalid_argument] on an empty
    list. *)

val keyword_search :
  ?limit:int ->
  ?exec:Pdms.Exec.t ->
  ?network:Pdms.Network.t ->
  Pdms.Catalog.t ->
  string ->
  Pdms.Keyword.hit list
(** Same arguments and result as {!Pdms.Keyword.search}, computed by
    brute force: the df corpus is rebuilt and every live tuple of every
    reachable relation re-vectorized and cosine-scored per call.
    Tokens come from the same {!Pdms.Kwindex} entries, so the hit list
    is bit-identical to the index's — scores, order and tie-breaks.
    [exec.jobs] shards the scoring; the ranking is the same for every
    value.  Opens ["score"] and ["rank"] spans on [exec.trace]. *)

val keyword_slot_scores :
  Pdms.Kwindex.entry list -> string list -> (Pdms.Kwindex.entry * int * float) list
(** [keyword_slot_scores entries query_toks] is the brute-force scan's
    score of every live slot of [entries] — [(entry, slot id, score)],
    relation by relation in ascending slot order — against the stemmed
    [query_toks], over the corpus of those slots: the scores
    {!keyword_search} ranks, zero and below-top-k ones included. *)

val stats_scan : Relalg.Relation.t -> Relalg.Stats.t
(** Cardinality and per-column distinct-value counts from one scan of
    the relation, with no cache: what {!Relalg.Stats.of_relation}
    returns, recomputed every call. *)
