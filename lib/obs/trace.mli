(** Hierarchical tracing.

    A tracer maintains a stack of open frames on the calling domain.
    [span t name f] opens a frame, runs [f], and closes the frame into a
    {!Span.t}; nested [span] calls become children, and when the outermost
    frame closes the finished root span is emitted to the tracer's sink.

    The disabled tracer {!null} (and any tracer created over {!Sink.null})
    reduces [span t name f] to a single branch plus the call to [f], so
    instrumentation can stay on permanently.

    Tracers are {e not} domain-safe: open spans and attach attributes only
    from the domain that created the tracer. *)

type t

val null : t
(** The disabled tracer: spans cost one branch, attributes cost nothing. *)

val create : Sink.t -> t
(** [create sink] makes a tracer emitting completed root spans to [sink].
    [create Sink.null] returns a disabled tracer. *)

val enabled : t -> bool

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] inside a new frame.  Exception-safe: the
    frame closes (and the root emits) even if [f] raises. *)

val attr : t -> string -> Span.value -> unit
(** [attr t k v] attaches an attribute to the innermost open frame; ignored
    when the tracer is disabled or no frame is open. *)

val attr_i : t -> string -> int -> unit
val attr_f : t -> string -> float -> unit
val attr_s : t -> string -> string -> unit
val attr_b : t -> string -> bool -> unit

val set_clock : (unit -> float) -> unit
(** Replace the wall clock (default [Unix.gettimeofday]) process-wide —
    used by tests to make durations deterministic. *)
