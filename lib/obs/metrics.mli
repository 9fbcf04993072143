(** Process-wide named metrics: counters, gauges, and histograms.

    Metrics live in a single global registry keyed by name, so any module can
    register a metric at load time and increment it on its hot path without
    threading handles around.  Counters and gauges are backed by [Atomic]
    (domain-safe, O(1) increments); histograms keep count/sum/min/max under a
    mutex and are meant for coarser-grained observations (per-query, not
    per-tuple).

    Registration is idempotent: asking twice for the same name and kind
    returns the same metric; asking for the same name with a different kind
    raises [Invalid_argument].  {!reset} zeroes values but keeps
    registrations, so module-toplevel handles stay valid across runs.

    The global {!set_enabled} switch turns every increment into a no-op.
    It is the one metrics switch: no caller-side flag gates a counter.
    Bench E15 uses it to approximate an uninstrumented build without
    recompiling. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
(** [incr c] adds 1; O(1), domain-safe, no-op while disabled. *)

val add : counter -> int -> unit
(** [add c n] adds [n] — use to flush a locally batched count in one shot
    rather than paying an atomic per inner-loop event. *)

val set_gauge : gauge -> float -> unit

val observe : histogram -> float -> unit
(** [observe h v] records one sample (count/sum/min/max). *)

(** {2 Snapshots} *)

type histogram_stats = { count : int; sum : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}
(** Each list is sorted by metric name, so snapshots of the same state render
    identically. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered metric (registrations survive). *)

val counter_value : snapshot -> string -> int
(** [counter_value snap name] is the counter's value, or 0 if absent. *)

val find_histogram : snapshot -> string -> histogram_stats option

val render : snapshot -> string
(** Plain-text rendering, one [name value] line per metric, sorted;
    zero-valued counters are included (they show the metric exists). *)

val to_json : snapshot -> string

(** {2 Global switch} *)

val set_enabled : bool -> unit
