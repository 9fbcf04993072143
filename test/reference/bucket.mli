(** The Bucket algorithm (Levy et al., from the Information Manifold
    line of work) — the classic baseline MiniCon improves on, kept as
    E3's baseline. One bucket per query subgoal; candidate rewritings
    are the cartesian product of the buckets, each validated by an
    expansion containment check.  It omits the classic algorithm's
    equality-repair step, so it misses rewritings MiniCon finds (see
    EXPERIMENTS.md, E3). *)

type stats = {
  bucket_sizes : int list;
  candidates_tried : int;
  candidates_valid : int;
  truncated : bool;  (** hit [max_candidates] before exhausting the product *)
}

val rewrite :
  ?max_candidates:int ->
  views:Cq.Query.t list ->
  Cq.Query.t ->
  Cq.Query.t list * stats
(** [rewrite ~views q] returns the contained rewritings found among the
    candidate combinations (default candidate cap: 200_000). *)
