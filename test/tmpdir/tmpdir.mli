(** A temporary directory that lives as long as one call. *)

val with_dir : prefix:string -> (string -> 'a) -> 'a
(** [with_dir ~prefix f] makes a fresh directory named
    [<prefix>-<pid>-<n>] under the temp directory, calls [f] on its
    path, and removes it with everything in it when [f] returns or
    raises. *)
