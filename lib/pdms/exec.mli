(** Execution contexts for the answer path.

    One [Exec.t] record carries the pruning configuration, the retry
    policy and the span tracer through {!Answer}, {!Reformulate},
    {!Distributed}, {!Keyword}, {!Cache} and {!Propagate}.  Callers that don't care pass nothing and get
    {!default}; callers that do build one context and reuse it across
    calls.  No field selects an algorithm: answering, keyword search and
    delta maintenance each have one implementation, and results never
    depend on the context beyond pruning (which rewritings reformulation
    keeps) and retry (which transfers survive a fault).

    Metrics are not part of the context: every [pdms.*] and [cq.*]
    counter goes through {!Obs.Metrics}, and {!Obs.Metrics.set_enabled}
    is the one switch that turns them all off. *)

(** Reformulation pruning heuristics (Section 3.1.1), individually
    switchable for the ablation benchmark. *)
type pruning = {
  use_history : bool;
      (** never traverse the same mapping edge twice on one derivation
          branch (cycle cut) *)
  use_goal_memo : bool;
      (** the aggressive Piazza heuristic: expand each alpha-equivalent
          pending query only once, regardless of history. Exact on
          acyclic mapping graphs and on the symmetric-equality cyclic
          workloads of the benchmarks (breadth-first order makes the
          first visit the shortest-path one); in adversarial cyclic
          setups it may prune derivations the slower settings find *)
  use_subsumption : bool;
      (** sweep each goal group's rewritings once its search ends: drop
          every rewriting contained in another, keeping the earliest of
          equivalent ones *)
  use_minimize : bool;  (** minimize each emitted rewriting *)
  max_depth : int;  (** expansion-depth cap per branch *)
  max_rewritings : int;
      (** stop a goal group's search after it has emitted this many
          rewritings, counting those the subsumption sweep then drops *)
}

val default_pruning : pruning

val no_pruning : pruning
(** Everything off except a (high) depth cap and rewriting cap — used by
    the E2 ablation to expose the blow-up. *)

(** {2 Retry policy for simulated network transfers}

    Consumed by {!Network.send_with_retry}: every transfer the
    distributed executor performs gets up to [max_attempts] tries, a
    per-attempt delivery deadline, and exponential backoff with
    multiplicative jitter between tries.  All randomness (the jitter)
    comes from an explicit {!Util.Prng.t}, so retry schedules are
    reproducible from a seed. *)

type backoff = {
  base_ms : float;  (** delay before the first retry *)
  multiplier : float;  (** growth factor per further retry *)
  jitter : float;
      (** fraction in [\[0, 1\]]: each delay is scaled by a uniform
          factor in [\[1 - jitter, 1 + jitter\]] *)
}

type retry = {
  max_attempts : int;  (** total tries including the first (>= 1) *)
  timeout_ms : float;
      (** per-attempt delivery deadline in simulated ms; a delivery
          slower than this counts as a failed attempt *)
  backoff : backoff;
}

val default_backoff : backoff
(** 10 ms base, doubling, 50% jitter. *)

val default_retry : retry
(** 3 attempts, 10 s per-attempt deadline, {!default_backoff}. *)

type t = {
  pruning : pruning;
  retry : retry;
      (** retry/timeout/backoff policy for simulated network sends
          (used by {!Distributed.execute}) *)
  trace : Obs.Trace.t;
      (** span collection; {!Obs.Trace.null} (the default) costs one
          branch per span site *)
}

val default : t
(** {!default_pruning}, {!default_retry}, no tracing. *)

val make :
  ?pruning:pruning -> ?retry:retry -> ?trace:Obs.Trace.t -> unit -> t

val with_pruning : pruning -> t
(** [with_pruning p] is {!default} with [pruning = p]. *)
