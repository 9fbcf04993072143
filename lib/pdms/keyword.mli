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

    Answers come from the {!Kwindex} inverted index: postings are
    gathered for the query's tokens only, partial dot products
    accumulate per candidate, and ranking early-terminates whole
    relations whose score upper bound cannot beat the current k-th
    score. Index entries live on their relations and change only when
    a relation's version moves, so repeated searches over an unchanged
    database skip tokenisation and vectorization entirely. The hit
    list is byte-identical to re-vectorizing and cosine-scoring every
    reachable tuple — scores, order, and tie-breaks (see {!Kwindex}).

    When [network] is given, relations owned by a peer that
    {!Network.Fault.is_down} are excluded at query time — search
    degrades to the reachable part of the PDMS instead of pretending
    dead peers answered, and the index entries survive for when the
    peer heals.

    Opens a ["keyword.search"] span (children ["kwindex.build"],
    ["kwindex.probe"], ["rank"]) and records [pdms.keyword.*] plus
    [pdms.kwindex.*] metrics. *)

val render_hit : hit -> string
