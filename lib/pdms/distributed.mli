(** Peer-based query processing (Section 3.1.2): "distribute each query
    in the PDMS to the peer that will provide the best performance"
    instead of funnelling everything through one central server. Each
    rewriting is executed at the peer owning most of the stored
    relations it reads; partial results ship back to the querying peer
    over the simulated network.

    Since the fault layer landed, execution {e degrades} instead of
    raising: transfers run under the {!Exec.retry} policy, rewritings
    whose transfers exhaust their retries are dropped, and the returned
    plan carries a {!completeness} report so callers can tell a partial
    answer from a full one. *)

type site_plan = {
  rewriting : Cq.Query.t;
  site : string;  (** peer chosen to execute it *)
  local_reads : int;  (** stored relations it reads that live at the site *)
  remote_reads : int;  (** stored relations fetched from elsewhere *)
  fetch_ms : float;
      (** shipping inputs to the site (includes retry waits/backoff) *)
  ship_ms : float;  (** shipping results back to the querying peer *)
}

(** How much of the full answer the plan actually delivered. *)
type completeness = {
  complete : bool;  (** no rewriting was dropped *)
  sites_failed : string list;
      (** peers blamed for dropped rewritings, sorted, deduped *)
  rewritings_dropped : int;
  send_attempts : int;  (** total send attempts across all transfers *)
  retries : int;  (** attempts beyond the first, summed *)
  backoff_ms : float;  (** total backoff slept across all transfers *)
}

type plan = {
  at : string;  (** the querying peer *)
  sites : site_plan list;  (** surviving rewritings only *)
  answers : Relalg.Relation.t;
  central_ms : float;
      (** baseline: ship every input relation to the querying peer *)
  distributed_ms : float;
      (** the plan's cost: max over sites (parallel execution) *)
  report : completeness;
}

val owner_of_pred : string -> string option
(** The peer owning a stored predicate ("mit.subject!" -> "mit"). *)

val bytes_per_tuple : int
(** The shipping cost model: a flat size estimate for one tuple, used
    for inputs, results and replicated deltas ({!Propagate}). *)

val execute :
  ?exec:Exec.t -> Catalog.t -> Network.t -> at:string -> Cq.Query.t -> plan
(** Reformulate, evaluate each rewriting exactly once, choose a site per
    rewriting with the pure {!Network.cost} estimator (planning never
    touches the traffic counters), then run the input-fetch and
    result-ship transfers for real under [exec.retry]. Rewritings whose
    transfers fail even after retrying are dropped; the surviving
    results are unioned and the plan's [report] says what was lost.
    With no injected faults the answer set is identical to
    {!Answer.answer}'s and [report.complete] is [true].

    The rewritings, one or many, are evaluated as one {!Cq.Plan}
    shared-prefix trie in per-query mode ({!Cq.Plan.run_each}), so
    shared joins run once while each rewriting still gets its own answer
    relation. With no surviving rewriting the answer is empty, shaped by
    {!Cq.Eval.head_schema} of the query.
    [exec.jobs] parallelises the reformulation's final subsumption sweep
    and the trie walk; rewritings, plans, costs and retry schedules are
    unaffected (transfers are sequential with a
    constant-seeded jitter stream). Opens a ["distributed.execute"] span
    (children ["reformulate"], ["eval"], ["plan"], ["transfer"]) and
    records [pdms.distributed.*] metrics — chosen vs. rejected candidate
    sites, per-site fetch/ship cost histograms, and
    [pdms.distributed.partial] / [pdms.distributed.rewritings_dropped]
    when the answer is incomplete. *)

val report_to_string : completeness -> string
(** One-line rendering for CLIs and logs. *)

val network_of_catalog : Catalog.t -> latency_ms:float -> Network.t
(** Uniform-latency network over the catalog's mapping graph: every
    catalog peer is a node and two peers are connected iff some mapping
    mentions both. *)
