(** Evaluation of conjunctive queries over a database.

    Each query runs as a one-path {!Plan}: its body is ordered greedily
    by estimated extension count (cardinality scaled by 1/distinct for
    every bound position, via the {!Relalg.Stats} cache), compiled into
    slot instructions, and joined by index-assisted nested loops over
    one mutable environment. Missing relations are treated as empty (a
    PDMS peer may reference relations it stores no data for); an atom
    whose arity disagrees with its stored relation also yields no
    bindings, and bumps the [cq.eval.arity_mismatch] counter so the
    schema bug shows up in metrics instead of vanishing as an empty
    answer. *)

module Smap : Map.S with type key = string

type binding = Relalg.Value.t Smap.t

val run_bindings : Relalg.Database.t -> Query.t -> binding list
(** All satisfying assignments of the body variables, in evaluation
    order. *)

val add_distinct : Relalg.Relation.t -> Relalg.Relation.tuple -> unit
(** Set-semantics append into a dedup accumulator: a {!Relalg.Relation.mem}
    guard in front of a singleton {!Relalg.Relation.apply}. *)

val run : Relalg.Database.t -> Query.t -> Relalg.Relation.t
(** Distinct head tuples. Raises [Invalid_argument] on unsafe queries. *)

val run_union_into : Relalg.Relation.t -> Relalg.Database.t -> Query.t list -> int
(** Evaluate every member and {!add_distinct} its head tuples into
    [out]: one shared hash-backed dedup set across the whole union,
    instead of a per-member relation. Returns the number of head tuples
    produced {e before} deduplication (the union's dedup rate is this
    minus the cardinality gained by [out]). *)

val head_schema : Query.t -> Relalg.Schema.t
(** The output schema [run] would build for the query's head. *)
