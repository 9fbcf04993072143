(** PDMS query reformulation (Section 3.1.1): rewrite a query posed over
    one peer's schema so it refers only to stored relations, chasing the
    {e transitive closure} of peer mappings. The algorithm interleaves
    the two classical directions — global-as-view query unfolding for
    definitional rules and mapping-predicate rules, and local-as-view
    answering-queries-using-views (MiniCon) for GLAV right-hand sides and
    storage descriptions — exactly the hybrid the paper describes.

    The search runs once per {e goal group}, Piazza's rule-goal tree
    (Halevy, Ives, Suciu & Tatarinov, ICDE 2003): MiniCon needs two
    subgoals in one view match only when a variable they share maps to
    an existential view variable. So when every variable of every view
    occurs in its head ({!Catalog.distinguished_views}), each subgoal is
    its own group; otherwise the groups are the connected components of
    the subgoals' shared-variable graph. Each group is reformulated on
    its own, with every variable it shares with the head or another
    group made distinguished, and the rewritings are the product of the
    groups' unions. A join's search therefore costs the sum of its
    subgoals' alternatives, not their product. A query with one group
    (every single-atom query) is searched as it stands.

    Pruning heuristics ("our query answering algorithm is aided by
    heuristics that prune redundant and irrelevant paths through the
    space of mappings") are individually switchable for the ablation
    benchmark through [exec.pruning] ({!Exec.pruning}). *)

type stats = {
  nodes_expanded : int;
  emitted : int;  (** the length of [rewritings] *)
  pruned_history : int;
  pruned_visited : int;
  pruned_subsumed : int;
  pruned_depth : int;
  lav_invocations : int;
  truncated : bool;
      (** some group's search stopped at [max_rewritings] with nodes
          still queued, so rewritings (and their answers) may be
          missing *)
}
(** Every count but [emitted] is summed over the goal groups' searches. *)

type outcome = { rewritings : Cq.Query.t list; stats : stats }

val reformulate : ?exec:Exec.t -> Catalog.t -> Cq.Query.t -> outcome
(** The rewritings range over stored predicates only. [exec] carries the
    pruning configuration, the domain count for the final subsumption
    sweep, and the tracer ({!Exec.default} when omitted);
    the rewriting list is identical — same queries, same order — for
    every value of [exec.jobs].

    [max_rewritings] bounds each group's search, and each group's union
    is swept and minimised on its own. The product is expanded in full,
    first group outermost: its length is the product of the groups'
    union sizes (less any member whose groups bind one variable to two
    constants), which can exceed [max_rewritings]. A member is not swept
    against the others (under set semantics a contained member adds no
    answers); only duplicate atoms are dropped from it.

    Opens one ["reformulate"] span (with a nested ["sweep"] per group)
    on [exec.trace] and batches the {!stats} counters into
    [pdms.reformulate.*] metrics. *)

val subsumption_sweep : ?exec:Exec.t -> Cq.Query.t list -> Cq.Query.t list
(** The final all-pairs subsumption sweep on its own (exposed for the
    reformulation-throughput benchmark): remove every rewriting
    contained in another, keeping the first representative of each
    equivalence class. Pairs are prefiltered by {!Cq.Signature}
    compatibility before the homomorphism test; [exec.jobs > 1]
    precomputes the containment verdicts in parallel and replays the
    identical sequential keep loop, so the surviving rewritings are
    deterministic and independent of [exec.jobs]. (The
    [pdms.reformulate.sweep.pairs_*] telemetry counts {e do} vary with
    [exec.jobs]: the sequential path short-circuits pairs whose operands
    were already killed, the parallel path tests every
    signature-compatible pair up front.) *)

val pp_stats : Format.formatter -> stats -> unit
(** One line of counts, ending in [" truncated"] when the cap dropped
    rewritings. *)
