(** End-to-end PDMS query answering: reformulate onto stored relations,
    then evaluate the union of rewritings over the peers' stored data.
    "The moment a peer establishes mappings to other sources, it can pose
    queries using its native schema, which will return answers from all
    mapped peers" (Example 3.1). *)

type result = {
  answers : Relalg.Relation.t;
  outcome : Reformulate.outcome;
}

val answer : ?exec:Exec.t -> Catalog.t -> Cq.Query.t -> result
(** [exec] ({!Exec.default} when omitted) carries pruning, the domain
    count and the tracer. [exec.jobs > 1] parallelises both
    the reformulation's final subsumption sweep
    ({!Reformulate.reformulate}) and the union evaluation, which walks
    the rewritings' shared-prefix trie over a frozen snapshot of the
    global database with the trie's top-level branches sharded across
    domains (see {!eval_union}). The rewriting list and the answer
    {e set} are identical for every [exec.jobs]. Opens an ["answer"]
    span on [exec.trace] with ["reformulate"] (and its ["sweep"]) and
    ["eval"] children, and records [pdms.answer.*] metrics. With no
    rewriting the answer is empty, shaped by {!Cq.Eval.head_schema}. *)

val eval_union :
  ?exec:Exec.t -> Relalg.Database.t -> Cq.Query.t list -> Relalg.Relation.t
(** Evaluate a union of rewritings over [db]: the rewritings, one or
    many, are compiled into one {!Cq.Plan} shared-prefix trie and
    walked once, with [exec.jobs > 1] sharding the walk across the
    trie's top-level branches. In that case the database is frozen
    ({!Relalg.Database.freeze}) and must not be mutated concurrently.
    A single rewriting's rows land in the order
    {!Cq.Eval.run_union_into} adds them.
    Raises on an empty list. Opens an ["eval"] span (with ["plan"] and
    ["trie_eval"] children) and records [pdms.eval.*] metrics
    (per-rewriting pre-dedup tuple counts and the union dedup rate —
    both independent of [exec.jobs]). *)

val answers_list : result -> string list list
(** Answer tuples rendered as strings, sorted lexicographically with
    [String.compare] — convenient for tests and examples. *)

val reachable_peers : Catalog.t -> string -> string list
(** Peers whose data is reachable from the given peer through the
    mapping graph (including itself) — the "web of data" the paper's
    Figure 2 caption describes. *)
