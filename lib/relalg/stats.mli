(** Per-relation statistics for join planning: cardinality plus a
    distinct-value count per column.

    They are kept in the relation's own {!Relation.Derived} slot and
    {e maintained} from {!Relation.deltas_since}: when the relation's
    version has moved, the slot's per-column value-count tables are
    patched with the retained deltas (O(changed rows x arity)) instead
    of rescanned.  A full O(tuples x arity) rescan happens only on a
    cold slot or when the delta log was truncated past the slot's
    version (counted in [pdms.delta.rebuild_fallbacks]); a forced
    rescan is {!reset_cache}, or [of_relation (Relation.copy rel)],
    since a copy has no slots. *)

type t = {
  cardinality : int;  (** tuple count at the served version *)
  distinct : int array;
      (** distinct values per column, length = schema arity; shared by
          every serve of one state, so read-only *)
}

val of_relation : Relation.t -> t
(** Statistics for the relation's current state.  A stale slot is
    delta-patched — counted in [pdms.delta.stats_patched] and
    {!cache_patches}.  Serving an unchanged relation again returns the
    same snapshot and allocates nothing. *)

val selectivity : t -> int -> float
(** [selectivity s col] is [1 / distinct.(col)] clamped to [(0, 1]] — the
    expected fraction of tuples surviving an equality bound on [col].
    Out-of-range columns and empty relations yield [1.0] (no reduction
    claimed). *)

val cache_hits : unit -> int
val cache_misses : unit -> int
(** Serves without and with a full scan, over every relation, since
    load or the last {!reset_cache} — exposed for tests and benches.
    A delta-patched serve counts as a hit (no rescan happened). *)

val cache_patches : unit -> int
(** How many serves were answered by folding retained deltas into a
    stale slot rather than rescanning. *)

val reset_cache : unit -> unit
(** Make every relation's statistics slot cold and zero the
    hit/miss/patch counts; other derived kinds are untouched. *)
