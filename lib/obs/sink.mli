(** Destinations for completed trace spans.

    A sink receives each {e root} span once its tracer frame closes.  Two
    implementations cover every current need:

    - [Null] — drops everything.  A tracer built on the null sink disables
      itself entirely, so instrumented code pays a single branch (well under
      10ns) per would-be span.
    - [Memory] — accumulates root spans in order for later rendering or
      assertions (used by [revere --trace], which prints them to stderr
      when the command ends, and by the test-suite). *)

type t

val null : t
val memory : unit -> t
(** [memory ()] creates a fresh in-memory sink; each call returns an
    independent buffer. *)

val is_null : t -> bool

val emit : t -> Span.t -> unit
(** [emit sink root] delivers one completed root span.  Called by
    {!Trace.span} when the outermost frame closes; safe to call directly. *)

val spans : t -> Span.t list
(** [spans sink] returns the root spans collected so far, oldest first.
    Always [[]] for the [null] sink. *)

val clear : t -> unit
(** [clear sink] empties a memory sink; no-op for [null]. *)
