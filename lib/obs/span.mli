(** Completed trace spans.

    A span records one timed phase of work: a name, wall-clock start and
    duration, a list of typed attributes, and the child spans that completed
    while it was open.  Spans are pure data — they are produced by
    {!Trace.span} and consumed by {!Sink} implementations or rendered
    directly.

    The tree shape is deterministic: children appear in start order and
    attributes in the order they were attached, so two runs of the same
    single-threaded code produce structurally identical trees (only the
    timings differ). *)

(** A typed attribute value. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type t = {
  name : string;
  start_s : float;  (** wall-clock seconds at open (clock-dependent) *)
  duration_s : float;  (** wall-clock seconds between open and close *)
  attrs : (string * value) list;  (** in attachment order *)
  children : t list;  (** in start order *)
}

val render : t -> string
(** [render span] renders the span tree as an indented text tree, one span
    per line with its duration in milliseconds and [k=v] attributes, ending
    with a newline.  Suitable for a terminal. *)

val to_json : t -> string
(** [to_json span] renders the span tree as a single-line JSON object
    [{"name":…,"start_s":…,"duration_ms":…,"attrs":{…},"children":[…]}]. *)

val names : t -> string list
(** [names span] lists span names in preorder (the root first) — handy for
    asserting tree shape in tests. *)

val find : t -> string -> t option
(** [find span name] returns the first descendant (or [span] itself) with
    the given name, searching in preorder. *)
