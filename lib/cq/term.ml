type t = Var of string | Const of Relalg.Value.t

let compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Const u, Const v -> Relalg.Value.compare u v
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let equal a b = compare a b = 0

let to_string = function
  | Var x -> x
  | Const v -> "'" ^ Relalg.Value.to_string v ^ "'"

let pp fmt t = Format.pp_print_string fmt (to_string t)

let v x = Var x
let c value = Const value
let str s = Const (Relalg.Value.Str s)
let int i = Const (Relalg.Value.Int i)
