(** Update propagation (Section 3.1.2): "Piazza treats updates as
    first-class citizens ... Updategrams on base data can be combined to
    create updategrams for views." A propagation registry holds
    materialised replicas of reformulated queries (e.g. the views that
    {!Placement} decided to replicate); pushing a base updategram
    applies it to the shared database once, ships the effective delta to
    every replica that reads the touched relation, and incrementally
    maintains exactly those replicas.

    When a simulated {!Network} is supplied, each dependent replica's
    delta travels over it (via {!Network.send_with_retry} under
    [exec.retry]); a replica whose transfer fails queues the updategram
    in a per-replica lag list and serves stale answers until
    {!reconcile} succeeds.  Successful deliveries and reconciliations
    bump [pdms.delta.replicas_converged]. *)

type t

val create : Catalog.t -> t

val materialise :
  t -> name:string -> at:string -> ?exec:Exec.t -> Cq.Query.t -> int
(** Reformulate the query, materialise every rewriting as a maintained
    view, and register them under [name] (hosted at peer [at]).
    Returns the number of distinct tuples materialised. Raises
    [Invalid_argument] on duplicate names. *)

val tuples : t -> name:string -> Relalg.Relation.tuple list
(** Distinct union across the replica's rewritings — the replica's
    {e last delivered} state; lagging replicas serve stale tuples. *)

val cardinality : t -> name:string -> int

val push :
  ?exec:Exec.t ->
  ?network:Network.t ->
  ?prng:Util.Prng.t ->
  ?tee:(rel:string -> Relalg.Relation.Delta.t -> unit) ->
  t ->
  Updategram.t ->
  (string * string) list
(** Apply the updategram to the catalog's global database (once) and
    maintain dependent replicas; returns the (name, at) pairs that
    converged.  Replicas not reading the relation pay nothing.  With a
    [network], the delta is shipped to each dependent host first
    ([exec.retry] + [prng] drive the retry loop); failed deliveries
    land in the replica's lag queue instead.  Converged replicas are
    maintained by derivation counting ({!View_maintenance}) around the
    one mutation, never recomputed.  [tee] (the durability hook)
    observes the single effective delta in write-ahead order, exactly
    as {!Updategram.apply} would record it.  A row of the wrong arity
    raises [Invalid_argument] before anything is shipped, queued or
    teed. *)

val lagging : t -> (string * int) list
(** Replicas with undelivered updategrams, with their backlog length,
    sorted by name. *)

val reconcile :
  ?exec:Exec.t ->
  ?network:Network.t ->
  ?prng:Util.Prng.t ->
  t ->
  name:string ->
  bool
(** Re-deliver the replica's backlog.  On success the replica's views
    are refreshed from the current database state (the base already
    moved on — replaying stale grams would not converge), the lag queue
    clears, and [pdms.delta.replicas_converged] bumps; on failure the
    backlog is kept.  Returns whether the replica is now converged. *)

val replicas : t -> (string * string) list
(** Registered (name, host peer) pairs. *)
