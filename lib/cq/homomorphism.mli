(** Homomorphism (containment-mapping) search between atom sets.

    The target side is {e frozen}: its variables are replaced by unique
    constants, so a homomorphism is a one-way matching from source
    variables to frozen target terms. *)

val freeze_atom : Atom.t -> Atom.t
(** Variables become reserved constants; constants pass through. *)

val find : ?init:Subst.t -> from:Atom.t list -> Atom.t list -> Subst.t option
(** [find ~from onto] searches for a substitution [h] of the variables
    of [from] such that every atom of [h(from)] appears in the frozen
    [onto]. [init] seeds required bindings (already frozen on the right-
    hand side). *)

val exists : ?init:Subst.t -> from:Atom.t list -> Atom.t list -> bool
