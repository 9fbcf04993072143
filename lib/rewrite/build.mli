(** Assembling a candidate rewriting from per-view cover pieces.

    MiniCon, like the Bucket baseline in the tests' reference library,
    ends with the same construction problem: given a set of views, each
    covering some query subgoals under a cover state, emit a
    conjunctive query over the view predicates whose head is the
    original query head. *)

type piece = {
  view : Cq.Query.t;  (** freshened view (head predicate = view name) *)
  state : Cover.state;
  images : (string * Cq.Term.t) list;
      (** the query variables occurring in the covered subgoals, sorted,
          each with its {!Cover.image} under [state] *)
  equated : (string * string list) list;
      (** query variables the rewriting must equate, because [state]
          maps them to one distinguished view variable: each group as
          its first member and the rest *)
}

val piece : view:Cq.Query.t -> state:Cover.state -> covered:int list
  -> query:Cq.Query.t -> piece
(** The piece covering subgoals [covered] (indices into [query]'s body);
    computes [images] and [equated]. *)

val assemble : fresh:(unit -> string) -> Cq.Query.t -> piece list -> Cq.Query.t option
(** [assemble ~fresh q pieces] builds the rewriting, or [None] when the
    pieces impose conflicting constant constraints or fail to expose a
    distinguished variable of [q]. *)
