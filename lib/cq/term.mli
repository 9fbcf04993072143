(** Terms of conjunctive queries: variables or constants. *)

type t = Var of string | Const of Relalg.Value.t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val v : string -> t
(** Variable shorthand. *)

val c : Relalg.Value.t -> t
val str : string -> t
val int : int -> t
