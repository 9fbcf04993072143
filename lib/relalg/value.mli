(** Atomic data values. The S-WORLD substrate is dynamically typed: the
    repository built from annotated web pages may hold dirty data
    (Section 2.3), so a column is not statically forced to one type. *)

type t = Null | Bool of bool | Int of int | Float of float | Str of string

val compare : t -> t -> int

val equal : t -> t -> bool
(** [compare a b = 0]: values of different constructors differ ([Int 1],
    [Float 1.] and [Str "1"] are three values), [nan] equals [nan] and
    [0.] equals [-0.]. *)

val hash : t -> int
(** Equal values hash alike. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val float_literal : float -> string
(** A rendering of the float that {!of_string} reads back as the same
    [Float] (bit for bit, except that every NaN reads back as NaN). *)

val add_key : Buffer.t -> t -> unit
(** Append a type-exact rendering for string keys: unlike {!to_string}
    it tags the type (so [Int 1], [Float 1.] and [Str "1"] differ),
    writes floats exactly, and length-prefixes strings (so a string
    cannot run into what follows it). *)

val of_string : string -> t
(** Best-effort parse: int, then float, then bool, else string.  A
    field starting with a letter is offered only to the conversions
    that can read it: to [float_of_string] when it starts with
    [i I n N] and, lowercased with every [_] dropped, with [inf] or
    [nan]; to [bool_of_string] when it starts with [t] or [f].  Any
    other is a [Str] without a conversion being tried. *)

val str : string -> t
val int : int -> t
