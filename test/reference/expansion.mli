(** Containment of a rewriting over views, checked by expansion: the
    oracle MiniCon's rewritings and the Bucket baseline's candidates
    are held to.  Reformulation calls {!Rewrite.Minicon.rewrite} alone
    and never this check. *)

val expand :
  ?max_depth:int -> views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t list
(** Expand a rewriting back to base predicates by unfolding view
    definitions (global-as-view), to fixpoint: one query per choice of
    rule for each defined atom, over undefined predicates only.
    Recursion through defined predicates is cut off at [max_depth]
    (default 12) unfoldings per branch; the result is complete for
    non-recursive views. *)

val is_contained_rewriting :
  views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t -> bool
(** [is_contained_rewriting ~views r q]: does [r]'s expansion hold only
    answers of [q]? *)
