type t =
  | Element of string * (string * string) list * t list
  | Text of string

let element ?(attrs = []) name children = Element (name, attrs, children)
let text s = Text s

let name = function Element (n, _, _) -> Some n | Text _ -> None

let attr t key =
  match t with
  | Element (_, attrs, _) -> List.assoc_opt key attrs
  | Text _ -> None

let children = function Element (_, _, cs) -> cs | Text _ -> []

let children_named t tag =
  List.filter
    (function Element (n, _, _) -> String.equal n tag | Text _ -> false)
    (children t)

let rec text_content = function
  | Text s -> s
  | Element (_, _, cs) -> String.concat "" (List.map text_content cs)

let rec descendants t =
  match t with
  | Text _ -> []
  | Element (_, _, cs) -> t :: List.concat_map descendants cs

let descendants_named t tag =
  List.filter
    (function Element (n, _, _) -> String.equal n tag | Text _ -> false)
    (descendants t)

let rec equal a b =
  match (a, b) with
  | Text s, Text s' -> String.equal s s'
  | Element (n, attrs, cs), Element (n', attrs', cs') ->
      String.equal n n'
      && List.length attrs = List.length attrs'
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
           attrs attrs'
      && List.length cs = List.length cs'
      && List.for_all2 equal cs cs'
  | Text _, Element _ | Element _, Text _ -> false

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 256 in
  let rec go indent t =
    let pad = String.make indent ' ' in
    match t with
    | Text s -> Buffer.add_string buf (pad ^ escape s ^ "\n")
    | Element (n, attrs, cs) ->
        let attr_str =
          String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (escape v)) attrs)
        in
        (match cs with
        | [] -> Buffer.add_string buf (Printf.sprintf "%s<%s%s/>\n" pad n attr_str)
        | [ Text s ] ->
            Buffer.add_string buf
              (Printf.sprintf "%s<%s%s>%s</%s>\n" pad n attr_str (escape s) n)
        | _ ->
            Buffer.add_string buf (Printf.sprintf "%s<%s%s>\n" pad n attr_str);
            List.iter (go (indent + 2)) cs;
            Buffer.add_string buf (Printf.sprintf "%s</%s>\n" pad n))
  in
  go 0 t;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)

let rec count_nodes = function
  | Text _ -> 1
  | Element (_, _, cs) -> 1 + List.fold_left (fun acc c -> acc + count_nodes c) 0 cs
