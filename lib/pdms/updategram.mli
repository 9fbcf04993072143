(** Updategrams (Section 3.1.2): "Piazza treats updates as first-class
    citizens, as any other data source" — a batch of inserts and deletes
    against one relation that can be shipped, composed, and applied to
    views incrementally. *)

type t = {
  rel : string;
  inserts : Relalg.Relation.tuple list;
  deletes : Relalg.Relation.tuple list;
}

val make :
  rel:string ->
  ?inserts:Relalg.Relation.tuple list ->
  ?deletes:Relalg.Relation.tuple list ->
  unit ->
  t

val effective_delta : Relalg.Relation.t -> t -> Relalg.Relation.Delta.t
(** What this updategram would actually change against the relation's
    current contents: deletes of absent tuples are dropped, duplicate
    deletes collapse to one removal (stored relations are distinct),
    and inserts that would be no-ops under insert-distinct semantics
    (already present and not deleted, or repeated within the gram) are
    dropped.  This is the payload {!Propagate} ships to replicas.
    Raises [Invalid_argument] when a row's arity is not the
    relation's. *)

val apply :
  ?exec:Exec.t ->
  ?tee:(rel:string -> Relalg.Relation.Delta.t -> unit) ->
  Relalg.Database.t ->
  t ->
  unit
(** Deletes first, then distinct inserts — one
    {!Relalg.Relation.apply} of the {!effective_delta}, so the
    relation's version bumps at most once and each derived slot queues
    the whole gram as a single delta.  Emits a [delta.apply]
    span on [exec.trace] and bumps [pdms.delta.applied].  Missing
    relation raises [Not_found]; a row of the wrong arity raises
    [Invalid_argument] before [tee] sees anything.

    [tee] (the durability hook — see [Persist]) observes the non-empty
    effective delta {e before} the mutation, i.e. write-ahead order:
    replaying teed deltas in sequence over the pre-update state
    reproduces the post-update state exactly, including row order. *)

val compose : t -> t -> t
(** Sequential composition (same relation required): the right operand
    happens after the left.  This is {!Relalg.Relation.Delta.compose}
    on the two grams, so a delete cancels an earlier pending insert of
    the same tuple. *)

val size : t -> int
val is_empty : t -> bool
