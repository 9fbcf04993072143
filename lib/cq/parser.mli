(** A small concrete syntax for conjunctive queries and rules:

    {[ ans(X, Y) :- course(X, T, 'cs'), teaches(Y, X) ]}

    Identifiers starting with an uppercase letter are variables;
    single-quoted strings, bare numbers and lowercase identifiers are
    constants (lowercase identifiers inside argument lists are string
    constants). Inside quotes, [''] stands for one quote; a bare
    number's exponent may carry a sign ([1e+20]). Whitespace is free. *)

val parse_query : string -> (Query.t, string) result
(** Parse one rule of the form [head :- body] (the body may be empty:
    [head :- .] is not allowed, but [head.] or just [head :- true] are
    not supported either — every query needs at least one body atom). *)

val parse_query_exn : string -> Query.t

val parse_program : string -> (Query.t list, string) result
(** One rule per non-empty, non-[#]-comment line. *)
