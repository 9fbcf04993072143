type t = Null | Bool of bool | Int of int | Float of float | Str of string

type ty = Tnull | Tbool | Tint | Tfloat | Tstr

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

let type_of = function
  | Null -> Tnull
  | Bool _ -> Tbool
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Str _ -> Tstr

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

let add_key buf = function
  | Null -> Buffer.add_char buf 'n'
  | Bool b -> Buffer.add_string buf (if b then "bt" else "bf")
  | Int i ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int i)
  | Float f -> Printf.bprintf buf "f%h" f
  | Str s ->
      Printf.bprintf buf "s%d:" (String.length s);
      Buffer.add_string buf s

let of_string s =
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> (
          match bool_of_string_opt s with Some b -> Bool b | None -> Str s))

let str s = Str s
let int i = Int i
