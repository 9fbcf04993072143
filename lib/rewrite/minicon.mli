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
    predicates: {!rewrite_prepared} over the views that share a body
    predicate with [q], each compiled for the call. View heads must use
    distinct predicate names from base relations. *)

val rewrite_prepared :
  views:Cover.template list -> Cq.Query.t -> Cq.Query.t list * stats
(** The same over views compiled once ({!Cover.compile}), in order. A
    view sharing no body predicate with [q] forms no MCD. Fresh
    variables are named [~f<n>], numbered past every [~f<n>] already in
    [q], so a rewriting of a query that itself came from MiniCon never
    equates an old existential with a new one. *)
