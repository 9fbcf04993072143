(** An evaluator of conjunctive queries that shares no code with the
    join engine: nested loops over {!Relalg.Relation.tuples} in body
    order, association-list bindings, and [Value.compare _ _ = 0] as
    equality.  {!Cq.Eval} and {!Cq.Plan} run the same compiled steps,
    so comparing them with each other cannot catch a bug they share;
    this evaluator takes nothing from either.  A missing relation, or
    an atom whose arity disagrees with its stored relation, has no
    matching rows. *)

type binding = (string * Relalg.Value.t) list

val assignments : Relalg.Database.t -> Cq.Query.t -> binding list
(** Every satisfying assignment of the body, as a bag. *)

val head : Cq.Query.t -> binding -> Relalg.Relation.tuple
(** The head tuple under an assignment of the body.  Raises [Not_found]
    when a head variable is unbound (an unsafe query). *)

val add : Relalg.Relation.t -> Relalg.Relation.tuple -> bool
(** Add a tuple unless the relation holds it; [true] when it was
    added. *)

val run : Relalg.Database.t -> Cq.Query.t -> Relalg.Relation.t
(** The distinct head tuples, in a fresh relation named after the head
    predicate. *)
