(** Matching a query subgoal into a view body — the shared machinery of
    MiniCon and of the Bucket baseline in the tests' reference
    library.

    Both sides are {!template}s: conjunctive queries compiled once, with
    each variable numbered as a slot. A view is compiled when it enters
    a catalog, a query once per rewriting call. Since the two sides
    number their variables apart, no view needs renaming away from the
    query. A cover state binds query slots to view terms, and view slots
    to view terms or constants (recording head-homomorphism equalities
    and constant constraints). *)

type arg = Slot of int | Lit of Relalg.Value.t

type catom = { pred : string; args : arg array }

(** What a term is bound to: nothing yet, a view slot (walked to its
    representative by {!image}), or a constant. *)
type bound = Free | To of int | Is of Relalg.Value.t

type template = {
  query : Cq.Query.t;  (** the query as compiled *)
  head : catom;
  body : catom array;
  vars : Cq.Term.t array;
      (** slot [i]'s variable, as it occurs in [query]; slots are
          numbered in first-occurrence order, head first *)
  distinguished : bool array;  (** does slot [i] occur in the head? *)
  by_name : int array;  (** the slots, sorted by variable name *)
}

val compile : Cq.Query.t -> template

val name : template -> int -> string
(** The variable name of a slot. *)

type state

val start : query:template -> view:template -> state
(** The empty cover state of [query] against [view]. *)

val match_subgoal : view:template -> state -> catom -> catom -> state option
(** [match_subgoal ~view st g b] extends a copy of [st] so that query
    subgoal [g] is covered by view body atom [b] ([st] itself is left
    as it was). Fails when it would require equating existential view
    variables or binding an existential view variable to a constant. *)

val image : state -> int -> bound
(** The walked view-side image of a query slot: [Free] if unbound. *)

val maps_to_existential : view:template -> state -> int -> bool
(** Does the query slot map to an existential slot of [view]? *)

val same : state -> state -> bool
(** Do the two states bind the same slots to the same walked terms? *)

val resolve : state -> arg -> bound
(** A view term under the state: a slot walked to its representative,
    or the constant. *)
