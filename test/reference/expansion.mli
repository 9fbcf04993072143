(** Containment of a rewriting over views, checked by expansion: the
    oracle MiniCon's rewritings and the Bucket baseline's candidates
    are held to.  Reformulation calls {!Rewrite.Minicon.rewrite} alone
    and never this check. *)

val expand : views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t list
(** Expand a rewriting back to base predicates by unfolding view
    definitions. *)

val is_contained_rewriting :
  views:Cq.Query.t list -> Cq.Query.t -> Cq.Query.t -> bool
(** [is_contained_rewriting ~views r q]: does [r]'s expansion hold only
    answers of [q]? *)
