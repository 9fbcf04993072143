(** Naive-fixpoint datalog evaluation. Used to materialise the
    consequences of definitional peer mappings and to check PDMS answer
    completeness in tests. *)

type program = Query.t list
(** Each query is a rule [head :- body]; head predicates are IDB. *)

val eval : Relalg.Database.t -> program -> Relalg.Database.t
(** Returns a fresh database containing the input EDB relations plus all
    derived IDB relations, evaluated to fixpoint (set semantics). The
    input database is not modified. Raises [Invalid_argument] if an IDB
    relation already exists in the EDB with a different arity, or if a
    rule is unsafe. *)

val query : Relalg.Database.t -> program -> Query.t -> Relalg.Relation.t
(** Evaluate the program to fixpoint, then run the query on top. *)
