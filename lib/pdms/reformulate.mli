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
    benchmark through [exec.pruning] ({!Exec.pruning}). Each question
    has one mechanism: history cuts cycles, the goal memo prunes
    revisits, and one {!subsumption_sweep} per group drops subsumed
    rewritings. *)

type stats = {
  nodes_expanded : int;
  emitted : int;  (** the length of [rewritings] *)
  pruned_history : int;
      (** rules and views a mapping already on the derivation path
          blocks: each GAV rule skipped, and at each LAV step every
          catalog view of every mapping in the pending atoms' union
          history. A LAV step reads only the views indexed under its
          node's predicates, but still counts each blocked mapping's
          full view count ({!Catalog.view_count}), so the count is the
          one a scan of every view would make. *)
  pruned_visited : int;  (** nodes the goal memo dropped *)
  pruned_subsumed : int;
      (** rewritings the sweep dropped: emissions minus survivors *)
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
    pruning configuration and the tracer ({!Exec.default} when omitted).
    Raises [Invalid_argument] when [q] is unsafe (a head variable does
    not occur in its body), so every caller refuses such a query alike.

    [max_rewritings] bounds each group's search: it counts every
    rewriting the search emits, including those the group's sweep then
    drops, so the cap bounds the search itself. Each group's union is
    minimised and swept on its own. The product is expanded in full,
    first group outermost: its length is the product of the groups'
    union sizes (less any member whose groups bind one variable to two
    constants), which can exceed [max_rewritings]. A member is not swept
    against the others (under set semantics a contained member adds no
    answers); only duplicate atoms are dropped from it.

    Opens one ["reformulate"] span (with a nested ["sweep"] per group)
    on [exec.trace] and batches the {!stats} counters into
    [pdms.reformulate.*] metrics. *)

val subsumption_sweep : ?exec:Exec.t -> Cq.Query.t list -> Cq.Query.t list
(** The subsumption sweep on its own (exposed for the
    reformulation-throughput benchmark): remove every rewriting
    contained in another; each maximal containment class keeps its
    earliest member, in input order. Pairs are prefiltered by
    {!Cq.Signature} compatibility before the homomorphism test. Runs on
    the calling domain; [exec] supplies the tracer, under which it opens
    a ["sweep"] span, and [pdms.reformulate.sweep.*] counts its
    pairs. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line of counts, ending in [" truncated"] when the cap dropped
    rewritings. *)
