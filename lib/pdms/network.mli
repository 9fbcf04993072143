(** Simulated peer overlay network.

    Latency-weighted undirected graph over peer names.  Routing is
    shortest-path (Dijkstra) and memoised per source until the topology
    changes; transfers cost the route latency plus 1 ms per KiB.

    Since the fault layer landed the network can also misbehave on
    demand: peers go down, links get cut or slow, and sends fail
    probabilistically — all injected through {!Fault} and all seeded via
    {!Util.Prng} so every run is reproducible.  {!send} consequently
    returns a [result]; callers that want the retry/timeout/backoff
    treatment go through {!send_with_retry} with an {!Exec.retry}
    policy. *)

type t

(** Why a delivery failed. *)
type error =
  | Peer_down of string  (** source or destination peer is down *)
  | No_route of string * string
      (** both endpoints up, but no surviving path between them *)
  | Link_drop of string * string
      (** message lost in transit (flaky-network fault) *)
  | Timed_out of string * string * float
      (** delivery took longer than the per-attempt deadline (ms) *)

val error_to_string : error -> string

val create : unit -> t

val add_peer : t -> string -> unit
(** Idempotent; O(1) (hashtable-backed peer set). *)

val connect : t -> string -> string -> latency_ms:float -> unit
(** Add an undirected edge.  Adds both endpoints as peers.  Repeat
    connections of the same pair keep the lowest latency instead of
    accumulating duplicate edges; self-loops are ignored. *)

val of_topology : Topology.t -> names:string list -> base_latency_ms:float -> t
(** Wire the topology's edges between the named peers, all with the same
    latency. *)

val peers : t -> string list
(** All peers (including down ones), sorted. *)

val latency : t -> string -> string -> float option
(** Shortest-path latency in ms over the surviving topology, or [None]
    if either endpoint is down or no path remains.  [latency t a a] is
    [Some 0.] while [a] is up. *)

val hops : t -> string -> string -> int option
(** Hop count along the shortest path, under the same reachability
    rules as {!latency}. *)

val cost : t -> src:string -> dst:string -> size:int -> float option
(** Pure estimate of what delivering [size] bytes would cost in ms:
    latency + transfer time.  Mutates nothing — this is what planning
    uses, so cost probes never show up in {!messages_sent}. *)

val send : t -> src:string -> dst:string -> size:int -> (float, error) result
(** Deliver [size] bytes; [Ok ms] gives the simulated delivery time.
    Counts toward {!messages_sent} only on success.
    Subject to injected faults: down peers, cut links, latency spikes
    and probabilistic {!Fault.flaky} drops. *)

(** Result of pushing one logical transfer through the retry loop. *)
type outcome = {
  result : (float, error) result;  (** final delivery time or last error *)
  attempts : int;  (** total tries made, >= 1 *)
  retries : int;  (** [attempts - 1] *)
  backoff_ms : float;  (** total time slept between tries *)
  elapsed_ms : float;
      (** simulated wall-clock for the whole exchange: waits on failed
          attempts + backoff sleeps + the final delivery (if any) *)
}

val send_with_retry :
  t ->
  retry:Exec.retry ->
  prng:Util.Prng.t ->
  src:string ->
  dst:string ->
  size:int ->
  outcome
(** Run {!send} under a retry policy.  Attempts that fail (or deliver
    past [retry.timeout_ms]) are retried up to [retry.max_attempts]
    total tries, sleeping an exponentially growing, jittered backoff in
    between; jitter randomness comes from [prng] only.  Records
    [pdms.net.retries], [pdms.net.gave_up] and the [pdms.net.backoff_ms]
    histogram. *)

val messages_sent : t -> int
val reset_counters : t -> unit

(** Fault injection.  Every mutation bumps a monotonically increasing
    topology version, which invalidates memoised routes and lets callers
    detect churn. *)
module Fault : sig
  val topology_version : t -> int
  (** Bumped on every topology or fault change (including heals). *)

  val fail_peer : t -> string -> unit
  (** Take a peer down: it neither sends, receives, nor routes. *)

  val heal_peer : t -> string -> unit

  val is_down : t -> string -> bool

  val cut_link : t -> string -> string -> unit
  (** Sever the direct edge between two peers (either argument order). *)

  val restore_link : t -> string -> string -> unit

  val partition : t -> string list -> unit
  (** Cut every edge between the given group and the rest of the
      network, splitting it into (at least) two islands. *)

  val spike : t -> string -> string -> extra_ms:float -> unit
  (** Add [extra_ms] latency to the direct edge between two peers. *)

  val flaky : t -> ?seed:int -> p:float -> unit -> unit
  (** Make every send fail independently with probability [p], drawn
      from a {!Util.Prng} stream seeded with [seed] (default 2003).
      [p <= 0.] turns flakiness off. *)

  val heal : t -> unit
  (** Clear all injected faults: downed peers, cut links, spikes and
      flakiness. *)
end
