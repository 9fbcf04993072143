(** Text serialisation of the triple store in an N-Triples-flavoured
    line format, with provenance carried in a trailing comment — the
    paper calls MANGROVE's annotation language "syntactic sugar for
    basic RDF", and this is the RDF-facing exchange format:

    {v
    <u/alice#person0> <phone> "206-543-1695" . # <http://u/alice> 3 bob
    <u/alice#person0> <age> "41"^^<http://www.w3.org/2001/XMLSchema#integer> . # <http://u/alice> 3
    v}

    (source URL, timestamp, optional author). A string object is a plain
    literal; an int, float or bool carries an XSD datatype IRI
    ([integer], [double], [boolean]) and a null the IRI [rdf:nil], so
    every value imports with the type it was exported with. *)

val export : Triple_store.t -> string
(** One line per triple, deterministic order. *)

val import : string -> (Triple_store.t, string) result
(** Inverse of [export]; blank lines and [#]-only comment lines are
    skipped. *)

val import_exn : string -> Triple_store.t
