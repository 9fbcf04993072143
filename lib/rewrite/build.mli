(** Assembling a candidate rewriting from per-view cover pieces.

    MiniCon, like the Bucket baseline in the tests' reference library,
    ends with the same construction problem: given a set of views, each
    covering some query subgoals under a cover state, emit a
    conjunctive query over the view predicates whose head is the
    original query head. *)

type piece
(** One view's cover of some subgoals: the view, the images of the
    covered query slots, the slots the rewriting must equate (because
    the state maps them to one view slot), and the view head's
    arguments as the rewriting will write them. *)

val piece : view:Cover.template -> state:Cover.state -> covered:int list
  -> query:Cover.template -> piece
(** The piece covering subgoals [covered] (indices into [query]'s body). *)

val assemble : fresh:(unit -> string) -> Cover.template -> piece list -> Cq.Query.t option
(** [assemble ~fresh q pieces] builds the rewriting, or [None] when the
    pieces impose conflicting constant constraints or fail to expose a
    distinguished variable of [q]. *)
