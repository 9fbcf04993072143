(** Matching a query subgoal into a view body — the shared machinery of
    MiniCon and of the Bucket baseline in the tests' reference
    library.

    A cover state is a single substitution over two disjoint variable
    namespaces: query variables map to view terms, and view variables map
    to view terms or constants (recording head-homomorphism equalities
    and constant constraints). Callers must ensure the namespaces are
    disjoint, e.g. via {!prepare_views}. *)

type state = Cq.Subst.t

val empty : state

val prepare_views : query:Cq.Query.t -> Cq.Query.t list -> Cq.Query.t list
(** The views sharing a body predicate with [query], each freshened with
    a suffix unique to its position in the input list, so its variables
    cannot collide with query variables or other views'. A dropped view
    could cover no subgoal of [query]. *)

val match_subgoal :
  view:Cq.Query.t -> state -> Cq.Atom.t -> Cq.Atom.t -> state option
(** [match_subgoal ~view st g b] extends [st] so that query subgoal [g]
    is covered by view body atom [b]. Fails when it would require
    equating existential view variables or binding an existential view
    variable to a constant. *)

val image : state -> string -> Cq.Term.t
(** [image st x] is the (walked) view-side image of query variable [x];
    [Var x] itself if unbound. *)

val maps_to_existential : view:Cq.Query.t -> state -> string -> bool
(** Does query variable [x] map to an existential variable of [view]? *)
