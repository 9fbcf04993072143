(** Naive-fixpoint Datalog evaluation, each rule evaluated with
    {!Nested_loop}: the certain-answer semantics that PDMS answers are
    checked against in tests, sharing no code with the join engine. *)

type program = Cq.Query.t list
(** Each query is a rule [head :- body]; head predicates are IDB. *)

val eval : Relalg.Database.t -> program -> Relalg.Database.t
(** Returns a fresh database containing the input EDB relations plus all
    derived IDB relations, evaluated to fixpoint (set semantics). The
    input database is not modified. Raises [Invalid_argument] if an IDB
    relation already exists in the EDB with a different arity, or if a
    rule is unsafe. *)

val query : Relalg.Database.t -> program -> Cq.Query.t -> Relalg.Relation.t
(** Evaluate the program to fixpoint, then run the query on top with
    {!Nested_loop.run}. *)
