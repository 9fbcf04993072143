(** The LSD pipeline (Doan, Domingos, Halevy, SIGMOD'01 — Section 4.3.2
    of the paper): manually mapped sources train per-mediated-element
    classifiers; new sources are then matched automatically. The paper
    reports "matching accuracies in the 70%-90% range", which bench E4
    reproduces. *)

type t

val train :
  ?synonyms:Util.Synonyms.t -> examples:Learner.example list -> unit -> t
(** Trains all four base learners plus the stacking meta-learner. *)

val mediated_labels : t -> string list
val learner_weights : t -> (string * float) list

val predict_column : t -> Column.t -> Learner.prediction
(** Meta-learner scores per mediated label. *)

val match_schema :
  ?threshold:float ->
  ?one_to_one:bool ->
  ?only:string list ->
  t ->
  Corpus.Schema_model.t ->
  (Column.t * string option) list
(** Match every column of the schema to a mediated label (or none). *)

val examples_of_schema :
  mapping:((string * string) * string) list ->
  Corpus.Schema_model.t ->
  Learner.example list
(** Build training examples from a schema plus a ground-truth mapping of
    (rel, attr) to mediated label. Unmapped columns are skipped. *)
