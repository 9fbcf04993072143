type t = Null | Memory of Span.t list ref

let null = Null
let memory () = Memory (ref [])
let is_null = function Null -> true | Memory _ -> false

let emit t span =
  match t with Null -> () | Memory cell -> cell := span :: !cell

let spans = function Memory cell -> List.rev !cell | Null -> []
let clear = function Memory cell -> cell := [] | Null -> ()
