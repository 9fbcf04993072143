(** Synonym tables.

    Section 4.2.1 maintains statistics "depending on whether we take into
    consideration word stemming, synonym tables, inter-language
    dictionaries, or any combination". A table groups interchangeable
    tokens; [canonical] maps every member of a group to one
    representative. *)

type t

val empty : t

val of_groups : string list list -> t
(** [of_groups groups] builds a table where all words within one group are
    mutual synonyms. Words are lowercased. *)

val canonical : t -> string -> string
(** [canonical t w] is the representative of [w]'s group ([w] itself if
    unknown). *)

val synonymous : t -> string -> string -> bool

val expand : t -> string -> string list
(** [expand t w] is the full group of [w] (at least [\[w\]]). *)

val university_domain : t
(** Built-in table for the paper's running university / course domain,
    including a small English–Italian inter-language fragment for the
    Rome/Trento scenario of Example 3.1. *)
