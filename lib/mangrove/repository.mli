(** The annotation repository. Publishing extracts an annotator's
    grouped annotations into the triple store "the moment a user
    publishes new or revised content" (Section 2.2); re-publishing a URL
    first retracts that URL's previous triples. Registered listeners
    (the instant-gratification applications) are notified synchronously. *)

type t

val create : unit -> t
val store : t -> Storage.Triple_store.t

val publish : ?author:string -> t -> Annotator.t -> int
(** Returns the number of triples now contributed by the document. *)

val retract : t -> string -> int
(** Retract all triples published from a URL. *)

val on_publish : t -> (unit -> unit) -> unit
val clock : t -> int
(** Logical publish counter (provenance timestamps come from it). *)

(** {2 Query conveniences} *)

val entities : t -> tag:string -> string list
(** Subjects of the given instance tag, sorted. *)

val field_values :
  t -> subject:string -> field:string ->
  (Relalg.Value.t * Storage.Provenance.t) list

val field_value : t -> subject:string -> field:string -> Relalg.Value.t option
(** First value if any (no cleaning applied — see {!Cleaning}). *)
