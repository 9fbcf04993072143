(** Hostile input for readers: valid documents with a few bytes
    dropped, inserted, cut off or copied elsewhere, so a property can
    check that a reader answers [Ok] or [Error] (or raises only its
    documented exception) instead of failing some other way. *)

val mutations : alphabet:string -> string list -> string QCheck.arbitrary
(** One of the seeds put through one to four steps, each at a position
    taken modulo the current length: delete a byte, insert a byte of
    [alphabet], cut the input off, or copy up to 8 of its bytes
    elsewhere.  Printed as an OCaml string literal. *)

val never_raises :
  name:string ->
  alphabet:string ->
  string list ->
  (string -> ('a, 'e) result) ->
  QCheck.Test.t
(** [never_raises ~name ~alphabet seeds parse] is a 500-case property
    that [parse] returns [Ok] or [Error] on every {!mutations} of
    [seeds], reporting any exception with the input that raised it. *)
