(** Reference implementations for tests and benchmarks.

    The library has one implementation each of union answering, keyword
    search, derived-state maintenance and the restart readers.  This
    module keeps the straightforward versions they are checked and
    timed against: each rewriting evaluated on its own, every reachable
    tuple scored, statistics counted in one uncached scan, and row
    fields split, trimmed and classified one substring and one
    conversion at a time.  Results are the same as the library's —
    answer sets equal, hit lists bit-identical — only the work
    differs.

    A from-scratch inverted index needs no code here: it is
    {!Pdms.Kwindex.reset} followed by {!Pdms.Kwindex.get}. *)

module Bucket = Bucket
(** The Bucket rewriting algorithm, the baseline MiniCon is checked and
    timed against (E3). *)

module Expansion = Expansion
(** GAV unfolding, and containment of a rewriting over views by
    expansion: the check MiniCon's rewritings and Bucket's candidates
    are held to. *)

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
    Opens ["score"] and ["rank"] spans on [exec.trace]. *)

val keyword_probe_every :
  ?limit:int ->
  ?network:Pdms.Network.t ->
  Pdms.Catalog.t ->
  string ->
  Pdms.Keyword.hit list * int * int
(** [keyword_probe_every catalog keywords] ranks as {!Pdms.Keyword.search}
    did before it looked at bounds first: every reachable relation is
    {!Pdms.Kwindex.probe}d into its own score array, then relations are
    ranked in database order, one whose bound is not above a full
    heap's floor being skipped.  Returns the hits, the candidates of
    every relation (skipped ones included) and the relations skipped —
    what [Keyword.search] adds to [pdms.kwindex.candidates] and
    [pdms.kwindex.skipped_by_bound]. *)

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

(** {2 Restart readers}

    The library's versions read fields without raising, copying or
    re-hashing, and must return the same values. *)

val value_of_string : string -> Relalg.Value.t
(** Int, then float, then bool, else string, each conversion tried in
    turn (a failed one raises and catches [Failure]): what
    {!Relalg.Value.of_string} returns. *)

val parse_row : string -> Relalg.Value.t list
(** A row's value list split on top-level ['|'] into substrings, each
    trimmed with [String.trim], unquoted or classified by
    {!value_of_string}: what {!Pdms.Pdms_file.parse_row} returns. *)

val apply_model :
  Relalg.Relation.tuple list -> Relalg.Relation.Delta.t -> Relalg.Relation.tuple list
(** [apply_model rows d]: the rows, oldest first, after one copy per
    del is removed (lowest position first, absent rows ignored) and the
    adds are appended: what {!Relalg.Relation.apply} leaves. *)
