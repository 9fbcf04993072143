(** Cooperative query-result caching (Section 3.1.2: peers should
    "perform the duties of cooperative web caches"). A cache stores the
    reformulated rewritings and evaluated answers per query; an incoming
    updategram invalidates exactly the entries whose rewritings read the
    touched relation. *)

type t

val create : ?capacity:int -> Catalog.t -> unit -> t
(** LRU with the given capacity (default 64 entries). The store is a
    hashtable plus an intrusive doubly-linked recency list, so lookup,
    hit bookkeeping and eviction are all O(1) in the entry count. *)

val answer : ?exec:Exec.t -> t -> Cq.Query.t -> Answer.result
(** Like {!Answer.answer} but cached: a hit skips both reformulation and
    evaluation. Queries are matched up to variable renaming. An entry
    answered at an older {!Catalog.version} (a peer, mapping or storage
    description added since) is no hit: it is dropped and the query is
    answered again as a miss. On overflow the strictly
    least-recently-used entry is evicted. Opens a ["cache.answer"] span
    (attribute [hit=true/false]; a miss nests the full ["answer"] span)
    and counts [pdms.cache.*] metrics. *)

val invalidate : t -> Updategram.t -> int
(** Drop entries whose rewritings mention the updategram's relation;
    returns how many were dropped. An inverted predicate index makes
    this O(affected entries), independent of cache size. Call this when
    applying updates to any peer's stored data.

    The updategram is {e probed} against each candidate entry first:
    an entry survives when no body atom over the touched relation
    unifies with any changed tuple (constants must match, repeated
    variables must bind consistently) — its answers are provably
    unaffected.  The probe reads patterns compiled when the entry was
    added: each distinct argument pattern of the entry's atoms over the
    relation (per column a constant, a first occurrence, or a repeat of
    an earlier column), so it costs one pass per distinct pattern and
    changed tuple, and allocates nothing.  Survivors count into
    [pdms.delta.cache_kept].  An {e empty} updategram carries nothing
    to probe and acts as a wildcard: every reader of the relation is
    dropped. *)

val hits : t -> int
val misses : t -> int

val entries : t -> int
(** Live entries right now (not cumulative). *)

type stats = { hits : int; misses : int; evictions : int; invalidated : int }
(** Lifetime totals: [evictions] counts capacity overflows only;
    [invalidated] counts entries dropped by {!invalidate}. *)

val stats : t -> stats
(** O(1) snapshot of the lifetime totals. The same numbers accumulate
    process-wide (across all caches) in the [pdms.cache.*] counters of
    {!Obs.Metrics}. *)
