type t = Null | Bool of bool | Int of int | Float of float | Str of string

let compare (a : t) (b : t) = Stdlib.compare a b

(* [compare a b = 0] without the polymorphic call: [Float.compare]
   keeps its float order, so [nan] equals [nan] and [0.] equals [-0.]. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.compare x y = 0
  | Str x, Str y -> String.equal x y
  | (Null | Bool _ | Int _ | Float _ | Str _), _ -> false

let hash (v : t) = Hashtbl.hash v

let to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s

let pp fmt v = Format.pp_print_string fmt (to_string v)

(* [to_string]'s ["%g"] renders 2.0 as "2" (an int on re-parse) and
   keeps 6 significant digits: keep a decimal point and enough digits
   to reproduce the float. *)
let float_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Whether [s], lowercased and with every ['_'] dropped, starts with
   [word]: how [float_of_string] reads [s] when it starts with a
   letter. *)
let starts_as word s =
  let n = String.length s and m = String.length word in
  let rec go i j =
    j = m
    || i < n
       && (if s.[i] = '_' then go (i + 1) j
           else Char.lowercase_ascii s.[i] = word.[j] && go (i + 1) (j + 1))
  in
  go 0 0

(* [int_of_string_opt] and [float_of_string_opt] raise and catch
   [Failure] on a field they do not read, so a field is only offered to
   the conversions that can read it.  None reads a field starting with
   a letter as an int; the only floats that do start with one are the
   words [inf], [infinity] and [nan] (in any case, with [_] anywhere),
   and the only booleans [true] and [false]. *)
let of_string s =
  match if s = "" then '\000' else s.[0] with
  | 'i' | 'I' | 'n' | 'N' -> (
      if not (starts_as "inf" s || starts_as "nan" s) then Str s
      else
        match float_of_string_opt s with Some f -> Float f | None -> Str s)
  | 't' | 'f' -> (
      match bool_of_string_opt s with Some b -> Bool b | None -> Str s)
  | 'a' .. 'z' | 'A' .. 'Z' -> Str s
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with Some f -> Float f | None -> Str s))

let str s = Str s
let int i = Int i
