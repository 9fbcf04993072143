(** "Similar names: for each of the uses of a term, which other words
    tend to be used with similar statistical characteristics?" (Section
    4.2.1). Distributional similarity: two attribute names are similar
    when they co-occur with similar sets of other attributes — even if
    lexically unrelated. *)

val similarity : Basic_stats.t -> string -> string -> float
(** Cosine of the two context vectors, excluding each other from the
    contexts (so synonymous attributes that never co-occur still score
    high). *)

val most_similar : ?limit:int -> Basic_stats.t -> string -> (string * float) list
(** Other attribute terms ranked by distributional similarity
    (default limit 10, zero-score entries dropped). *)
