(** The MatchingAdvisor (Section 4.3.2): match two {e previously unseen}
    schemas S1 and S2 with the corpus as the domain expert. Two methods,
    both from the paper:

    - {b classifier correlation}: apply the corpus-trained classifiers to
      the elements of both schemas and hypothesise s1 ~ s2 when the
      classifiers make correlated predictions;
    - {b pivot}: find the corpus schemas most similar to S1 and S2 and
      reuse a known corpus mapping between them. *)

type t

val build : ?synonyms:Util.Synonyms.t -> Corpus.Corpus_store.t -> t
(** Train per-concept classifiers over the corpus; concepts are the
    canonicalised attribute names of the corpus. *)

val concepts : t -> string list

val match_schemas :
  ?threshold:float ->
  t ->
  Corpus.Schema_model.t ->
  Corpus.Schema_model.t ->
  (Column.t * Column.t * float) list
(** Classifier-correlation matching: one-to-one pairs (s1 column, s2
    column, correlation), best first. *)

val match_via_pivot :
  t ->
  corpus:Corpus.Corpus_store.t ->
  Corpus.Schema_model.t ->
  Corpus.Schema_model.t ->
  (Column.t * Column.t) list
(** Pivot through the closest corpus schemas and their known mapping;
    empty when no usable corpus mapping exists. *)
