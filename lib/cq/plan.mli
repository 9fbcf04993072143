(** The join engine: shared-prefix evaluation of a rewriting union, and
    of a single query as a one-path plan ({!Eval} runs on it).

    [build] orders every body greedily by estimated extension count
    (cardinality scaled by 1/distinct for every bound position, from
    {!Relalg.Stats}; ties break towards more bound positions, then body
    order), alpha-normalises it (variables renamed by first occurrence
    over the ordered body, heads mapped through the same renaming), and
    folds the ordered bodies into a prefix trie: each query is one root-to-leaf
    path, internal nodes are shared join prefixes, and the node where a
    body ends carries the query's head template. Alpha-equivalent
    prefixes — the common case for sibling rewritings unfolded from the
    same mapping chains — collapse onto one path, and fully identical
    (body, head) queries collapse onto one emit point, so evaluation
    computes every shared prefix binding set exactly once.

    Variable [p<i>] of the renaming is slot [i] of the walk's
    environment, so the slots bound above a trie node are fixed by its
    path. Each node's atom is compiled once, at build, into one
    instruction per column: a constant or an ancestor-bound slot filters
    (and these columns are the index probe), a first occurrence writes
    its slot, and a repeat within the atom checks it. Each emit carries
    a head template over slots and constants. The walk extends one
    mutable [Value.t array]; a scan or a one-column probe allocates
    nothing, and a matching row nothing but the head tuples it emits.

    Evaluation walks the trie once, depth-first, in the calling domain.
    The database must not change during a walk.

    {b Fans.} A node's children that probe their relation on exactly
    one ancestor-bound slot (one such column, no constant) are grouped
    by that slot; a group of two or more is a fan.  Sibling rewritings
    of a product of unions make one: every member of the first goal
    group's union has one child per member of the next, each probing
    its own relation for the same join value.  Each walk gives a fan
    one union table, shared by every node whose fan reads the same
    (relation, column, arity) list, mapping a key value to each
    member's candidate rows (the lists {!Relalg.Relation.find_by}
    returns).  A
    binding then makes one lookup for the whole fan; children are still
    visited in insertion order, so rows, row order and counts are those
    of per-child probing.  A member whose relation is missing or has
    the wrong arity is visited on its own.  {e The guard:} a union is
    built only once the member probes made without it in this walk
    reach the number of keys it would hold (the sum of the members'
    distinct values in the probed column, from {!Relalg.Stats}), so a
    selective parent never pays for a table it would barely use.

    Emits go into an accumulator through {!Relalg.Relation.add_distinct}:
    one hash and one membership probe per head tuple.

    Instrumentation: [cq.plan.builds], [cq.plan.nodes],
    [cq.plan.shared_prefix_atoms] and [cq.plan.bindings_reused]
    counters; [cq.plan.fan_unions] (union tables built) and
    [cq.plan.probes_shared] (member probes a union answered beyond the
    first per binding), also set as [fan_unions] and [probes_shared]
    attributes of the [trie_eval] span; a [cq.plan.depth] histogram of
    per-query path depths; and [plan] / [trie_eval] spans on the
    caller's tracer. *)

type t

val head_schema : Query.t -> Relalg.Schema.t
(** The output schema of the query's head ({!Eval.head_schema}). *)

type build_stats = {
  queries : int;  (** queries folded into the trie *)
  nodes : int;  (** trie nodes (root excluded) *)
  shared_prefix_atoms : int;
      (** sum over nodes of (queries through the node - 1): the number
          of atom evaluations the trie shares away relative to
          per-rewriting evaluation, structurally *)
  duplicate_queries : int;
      (** queries whose canonical (body, head) duplicated an earlier
          one — they share an emit point *)
  max_depth : int;  (** longest root-to-leaf path *)
}

val build : ?trace:Obs.Trace.t -> Relalg.Database.t -> Query.t list -> t
(** Plan the union. Ordering consults {!Relalg.Stats} (cached per
    relation state), so building is cheap to repeat on an unchanged
    database. *)

val of_query : Relalg.Database.t -> Query.t -> t
(** The one-path plan of a single query, as {!build} would plan it but
    recording no [cq.plan.*] metrics and no span: {!Eval}'s entry
    point. *)

val stats : t -> build_stats

val run_union_into :
  ?trace:Obs.Trace.t -> Relalg.Relation.t -> Relalg.Database.t -> t ->
  int list
(** Walk the trie once, {!Relalg.Relation.add_distinct}-ing every head
    tuple into the shared accumulator, with the same answer set as
    {!Eval.run_union_into} over the original list. Returns per-query
    pre-dedup tuple counts in input order — equal to
    [|Eval.run_bindings q|] per query. *)

val run_each :
  ?trace:Obs.Trace.t -> Relalg.Database.t -> t -> Relalg.Relation.t list
(** Walk the trie once but give every query its own distinct-answer
    relation (schema from {!Eval.head_schema}), in input order —
    equivalent to [List.map (Eval.run db)] over the original list. Used
    by the distributed executor, which sizes per-rewriting shipments. *)

val iter_assignments :
  Relalg.Database.t -> t -> (string array -> Relalg.Value.t array -> unit) ->
  unit
(** Walk the plan sequentially and call [f vars env] once per satisfying
    assignment of a query's body, in walk order: slot [i] of [env] holds
    the value of the query's variable [vars.(i)]. [env] is overwritten
    by the walk, so [f] must copy what it keeps. Used by
    {!Eval.run_bindings}. *)
