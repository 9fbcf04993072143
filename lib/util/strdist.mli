(** String similarity measures used by the name-based matcher. *)

val levenshtein : string -> string -> int

val levenshtein_sim : string -> string -> float
(** [1 - dist / max-length], in [\[0, 1\]]; 1.0 for two empty strings. *)

val jaccard : string list -> string list -> float
(** Jaccard similarity of two token multisets (treated as sets). *)

val ngram_sim : ?n:int -> string -> string -> float
(** Dice coefficient over character n-grams (default [n = 3]). *)
