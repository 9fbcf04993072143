(** TF/IDF vector space — the U-WORLD technique the paper explicitly
    transplants into the S-WORLD (Section 4). Documents are bags of
    tokens; vectors are sparse. *)

type corpus
type vector = (string * float) list
(** Sparse vector: token -> weight, tokens unique. *)

val build : string list list -> corpus
(** [build docs] computes document frequencies over tokenised documents. *)

val of_counts : n:int -> (string * int) list -> corpus
(** [of_counts ~n counts] assembles a corpus from precomputed integer
    document frequencies over [n] documents (e.g. merged per-relation
    deltas from an inverted index). Equivalent to [build] on any doc
    set with those frequencies: counts below 2^53 convert exactly. *)

val replace_counts : corpus -> n:int -> (string * int) list -> corpus
(** [replace_counts c ~n counts] is [c] over [n] documents with each
    listed token's document frequency replaced by its count (a count
    of 0 drops the token).  Equivalent to {!of_counts} over [c]'s counts
    with those replaced; [c] itself is unchanged, so a corpus in use
    elsewhere stays valid. *)

val num_docs : corpus -> int

val idf : corpus -> string -> float
(** Smoothed: [log ((n + 1) / (df + 1)) + 1]. *)

val vectorize : corpus -> string list -> vector
(** TF (raw count) * IDF, L2-normalised. *)

val cosine : vector -> vector -> float
(** Dot product over shared tokens. When both vectors are strictly
    token-sorted (as [vectorize] output always is) this is a linear
    two-pointer merge; otherwise it falls back to a map-based probe. *)

val similarity : corpus -> string list -> string list -> float
(** Cosine of the two vectorised documents. *)
