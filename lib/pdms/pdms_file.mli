(** A line-oriented text format describing a whole PDMS — peers, stored
    data and mappings — so catalogs can live in files and be queried
    from the command line:

    {v
    peer uw
    relation course(code, title)
    store course
    row course: cse444 | databases

    peer mit
    relation subject(id, name)
    store subject
    row subject: 6.033 | systems

    mapping equality
    lhs m(C, T) :- mit.subject(C, T)
    rhs m(C, T) :- uw.course(C, T)

    mapping definitional
    rule uw.course(C, T) :- mit.subject(C, T)
    v}

    [store] registers an identity storage description; [row] loads a
    tuple (values parsed as int/float/bool when they look like one;
    single-quote a value, e.g. ['6.830'], to force a string).
    Within a peer section, declare every [relation] before the first
    [store]. Mapping queries use the {!Cq.Parser} syntax with qualified
    predicates. *)

val parse : string -> (Catalog.t, string) result
(** [Error "line N: ..."] names the first line that cannot stand: an
    unknown line, a store or row of an undeclared relation, a relation
    declared twice or after its peer's first store, an unsafe rule or
    mapping side, or mapping sides whose heads differ in arity.  Never
    raises. *)

val parse_exn : string -> Catalog.t

val render : Catalog.t -> string
(** Peers, stored rows and mappings in the same format (identity storage
    descriptions only — the general ones are rendered as comments).
    Row values round-trip: string values that would re-parse as a
    different value (numeric- or boolean-looking, containing ['|'], or
    with leading/trailing whitespace) are single-quoted.  Mapping
    constants round-trip by type: ints and booleans bare, floats as
    {!Relalg.Value.float_literal}, strings single-quoted. *)

val parse_value : string -> Relalg.Value.t
(** One row field, already stripped: quoted strings unwrap ([''] inside
    quotes is a literal quote), everything else goes through
    {!Relalg.Value.of_string}. *)

val split_row : string -> string list
(** Split a row's value list on top-level ['|'] — separators inside a
    single-quoted field are data.  Fields come back unstripped. *)

val render_value : Relalg.Value.t -> string
(** Inverse of {!parse_value} (quoting exactly the strings that need
    it, and rendering floats with a decimal point and full precision so
    [Float 2.] does not come back as [Int 2]); [Value.Null] has no row
    syntax and renders as the bare word [null]. *)
