(** Keyword search over the structured web of data — the U-WORLD query
    paradigm (Section 1.1: "a set of keywords suffices") pointed at
    every peer's stored relations. Tuples are treated as documents;
    results are TF/IDF-ranked across the whole PDMS. *)

type hit = {
  peer : string;  (** owner of the stored relation, "" if unqualified *)
  stored_rel : string;
  tuple : Relalg.Relation.tuple;
  score : float;
}

val search :
  ?limit:int -> ?exec:Exec.t -> ?network:Network.t -> Catalog.t -> string ->
  hit list
(** [search catalog "ancient history"] ranks every stored tuple in every
    peer against the keyword query (stemmed tokens, TF/IDF over the
    tuple corpus); default limit 10, zero scores dropped.

    Answers come from the {!Kwindex} inverted index in two steps.
    First {!Kwindex.find} looks up every reachable relation's postings
    for the query's tokens and sums its score upper bound, touching no
    slot.  Then relations are ranked in database order, and one is
    scored ({!Kwindex.score_into}: partial dot products per candidate)
    only when its bound beats the current k-th score; otherwise it is
    skipped whole, its candidates counted but never scored.  Every
    scored relation writes into one slot-indexed buffer per search,
    sized to the largest relation, and ranking zeroes each candidate's
    cell as it reads it, so the buffer is all zero again for the next
    relation.  Index entries live on their relations and change only
    when a relation's version moves, so repeated searches over an
    unchanged database skip tokenisation and vectorization entirely.
    The hit list is byte-identical to re-vectorizing and
    cosine-scoring every reachable tuple — scores, order, and
    tie-breaks (see {!Kwindex}).

    When [network] is given, relations owned by a peer that
    {!Network.Fault.is_down} are excluded at query time — search
    degrades to the reachable part of the PDMS instead of pretending
    dead peers answered, and the index entries survive for when the
    peer heals.

    Opens a ["keyword.search"] span with children ["kwindex.build"]
    (getting every reachable relation's entry), ["kwindex.probe"] (the
    posting lookup and bound of every reachable relation) and ["rank"]
    (scoring the relations whose bound passes, and the heap), and
    records [pdms.keyword.*] plus [pdms.kwindex.*] metrics:
    [pdms.kwindex.candidates] counts the candidates of every reachable
    relation, skipped ones included, and
    [pdms.kwindex.skipped_by_bound] the relations skipped. *)

val render_hit : hit -> string
