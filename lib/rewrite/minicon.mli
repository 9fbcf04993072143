(** The MiniCon algorithm (Pottinger & Halevy, VLDB J. 2001) for
    answering queries using views — the core of LAV-direction query
    reformulation in the PDMS.

    Phase 1 forms MiniCon descriptions (MCDs): minimal view covers of
    query subgoals satisfying the distinguished-variable conditions.
    Phase 2 combines MCDs with disjoint subgoal coverage into conjunctive
    rewritings over the view predicates. The union of the produced
    rewritings is the maximally-contained rewriting of the query. *)

type stats = {
  mcds_formed : int;
  combinations_tried : int;
  rewritings_produced : int;
}

val rewrite : views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t list * stats
(** [rewrite ~views q] returns contained rewritings of [q] over the view
    predicates. View heads must use distinct predicate names from base
    relations. *)
