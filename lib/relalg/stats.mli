(** Per-relation statistics for join planning: cardinality plus a
    distinct-value count per column, cached process-wide.

    The cache is keyed on {!Relation.uid} and {e maintained} from
    {!Relation.deltas_since}: when the relation's version has moved, the
    cached per-column value-count tables are patched with the retained
    deltas (O(changed rows x arity)) instead of rescanned.  A full
    O(tuples x arity) rescan happens only on a cold entry or when the
    delta log was truncated past the cached version (counted in
    [pdms.delta.rebuild_fallbacks]); a forced rescan is
    [of_relation (Relation.copy rel)], since a copy has a fresh uid.
    The table is mutex-protected; full scans happen outside the lock,
    so concurrent planners at worst duplicate one scan. *)

type t = {
  cardinality : int;  (** tuple count at the served version *)
  distinct : int array;
      (** distinct values per column, length = schema arity *)
}

val of_relation : Relation.t -> t
(** Statistics for the relation's current state.  A stale cached entry
    is delta-patched — counted in [pdms.delta.stats_patched] and
    {!cache_patches}. *)

val selectivity : t -> int -> float
(** [selectivity s col] is [1 / distinct.(col)] clamped to [(0, 1]] — the
    expected fraction of tuples surviving an equality bound on [col].
    Out-of-range columns and empty relations yield [1.0] (no reduction
    claimed). *)

val cache_hits : unit -> int
val cache_misses : unit -> int
(** Cumulative cache behaviour since load (or the last {!reset_cache}) —
    exposed for tests and the E17 bench commentary.  A delta-patched
    serve counts as a hit (no rescan happened). *)

val cache_patches : unit -> int
(** How many serves were answered by folding retained deltas into a
    stale entry rather than rescanning. *)

val reset_cache : unit -> unit
(** Drop every cached entry and zero the hit/miss/patch counters. *)
