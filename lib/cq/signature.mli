(** Cheap query signatures: a necessary-condition prefilter for the
    NP-hard containment test. [q1 ⊑ q2] requires a homomorphism from
    [q2]'s body into [q1]'s body that maps head onto head, so it can
    only hold when the head arities agree and every body predicate of
    [q2] also occurs in [q1]'s body (a homomorphism preserves predicate
    names; several atoms may collapse onto one, so only the name {e
    set} is constrained, not multiplicities). Comparing signatures is a
    few string comparisons — callers screen candidate pairs with
    {!compatible} before paying for the homomorphism search. *)

type t = {
  head_arity : int;
  preds : (string * int) list;
      (** body predicate multiset, sorted by name, with occurrence
          counts *)
}

val of_query : Query.t -> t

val compatible : sub:t -> super:t -> bool
(** [compatible ~sub ~super] is a necessary condition for the query of
    [sub] to be contained in the query of [super]: equal head arity and
    [super]'s predicate names a subset of [sub]'s. When it returns
    [false], [Containment.contained_in sub_q super_q] is certainly
    [false]; when [true], the full test must still run. *)
