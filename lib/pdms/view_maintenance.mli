(** Counting-based incremental maintenance of materialised conjunctive
    views under updategrams — "when a view is recomputed on a Piazza
    node, the query optimizer decides which updategrams to use"
    (Section 3.1.2). Each output tuple carries its derivation count, so
    deletions are exact without recomputation. *)

type t

val create : ?exec:Exec.t -> Relalg.Database.t -> Cq.Query.t -> t
(** Materialise the view over the database. The database is captured by
    reference: all subsequent updates must flow through {!apply} (or be
    followed by {!refresh}). The execution context (default
    {!Exec.default}) governs later {!apply} calls that don't override
    it. Raises [Invalid_argument] on unsafe queries. *)

val query : t -> Cq.Query.t
val tuples : t -> Relalg.Relation.tuple list
val cardinality : t -> int

val apply : ?exec:Exec.t -> t -> Updategram.t -> unit
(** Apply the updategram to the underlying database {e and} maintain
    the view (deletes processed before inserts): the view's derivation
    counts are patched per touched tuple under a [view.maintain] span
    on [exec.trace], never recomputed.  [exec] defaults to the context
    given at {!create}. *)

val refresh : t -> unit
(** Full recomputation from the current database state — for a view
    whose database moved without it (a lagging replica catching up, see
    {!Propagate.reconcile}), and the recompute baseline that
    incremental maintenance is measured and checked against. *)

(** {2 Several views over one database}

    For several views sharing one database (update propagation), the
    caller applies each updategram once for all of them. *)

val maintain : t list -> Relalg.Relation.t -> Updategram.t -> unit
(** [maintain views rel u] applies [u] to [rel] — the relation [u]
    names in the views' shared database — tuple by tuple, deletes
    before inserts, skipping deletes of absent and inserts of present
    tuples, and maintains the derivation counts of every view in
    [views] around each mutation.  Views that do not read [rel] pay
    nothing; with no views it only mutates [rel].  The net change to
    [rel] equals one {!Relalg.Relation.apply} of
    {!Updategram.effective_delta}, rows in the same order.  {!apply} is
    [maintain [ t ]] under a [view.maintain] span. *)
