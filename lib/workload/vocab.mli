(** Deterministic vocabulary pools for the university domain. *)

val departments : string array
val days : string array
val times : string array
val venues : string array
val universities : string array
(** The six universities of Figure 2, in paper order. *)

val person_name : Util.Prng.t -> string
val course_code : Util.Prng.t -> string
val course_title : Util.Prng.t -> string
val phone : Util.Prng.t -> string
val email : Util.Prng.t -> name:string -> string
val room : Util.Prng.t -> string
val year : Util.Prng.t -> string
val url : host:string -> path:string -> string
