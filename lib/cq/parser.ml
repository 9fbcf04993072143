(* Recursive-descent over a char cursor; the grammar is tiny. *)

type cursor = { text : string; mutable pos : int }

exception Parse_error of string

let fail cur fmt =
  Printf.ksprintf
    (fun msg ->
      raise (Parse_error (Printf.sprintf "%s (at offset %d)" msg cur.pos)))
    fmt

let peek cur =
  if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        go ()
    | Some _ | None -> ()
  in
  go ()

let expect cur c =
  skip_ws cur;
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> fail cur "expected '%c', found '%c'" c c'
  | None -> fail cur "expected '%c', found end of input" c

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '!' || c = '~' || c = '-'

let ident_chars cur =
  let start = cur.pos in
  let rec go () =
    match peek cur with
    | Some c when is_ident_char c ->
        advance cur;
        go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub cur.text start (cur.pos - start)

let ident cur =
  skip_ws cur;
  let word = ident_chars cur in
  if word = "" then fail cur "expected an identifier";
  word

(* A bare constant reads like an identifier, except that a float's
   exponent may carry a sign: [1e+20] is one word. *)
let bare_word cur =
  let word = ident cur in
  let n = String.length word in
  if
    peek cur = Some '+'
    && (word.[n - 1] = 'e' || word.[n - 1] = 'E')
    && Option.is_some (float_of_string_opt (String.sub word 0 (n - 1)))
  then begin
    advance cur;
    word ^ "+" ^ ident_chars cur
  end
  else word

let quoted cur =
  (* Opening quote already consumed; a doubled quote stands for one. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | Some '\'' ->
        advance cur;
        if peek cur = Some '\'' then begin
          advance cur;
          Buffer.add_char buf '\'';
          go ()
        end
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
    | None -> fail cur "unterminated quoted constant"
  in
  go ();
  Buffer.contents buf

let term cur =
  skip_ws cur;
  match peek cur with
  | Some '\'' ->
      advance cur;
      Term.Const (Relalg.Value.Str (quoted cur))
  | Some c when (c >= 'A' && c <= 'Z') || c = '_' -> Term.Var (ident cur)
  | Some _ ->
      let word = bare_word cur in
      (* Numbers parse as numeric constants, anything else as strings. *)
      Term.Const (Relalg.Value.of_string word)
  | None -> fail cur "expected a term"

let atom cur =
  let pred = ident cur in
  expect cur '(';
  skip_ws cur;
  let args =
    match peek cur with
    | Some ')' -> []
    | _ ->
        let rec go acc =
          let t = term cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              go (t :: acc)
          | _ -> List.rev (t :: acc)
        in
        go []
  in
  expect cur ')';
  Atom.make pred args

let query cur =
  let head = atom cur in
  skip_ws cur;
  expect cur ':';
  expect cur '-';
  let rec body acc =
    let a = atom cur in
    skip_ws cur;
    match peek cur with
    | Some ',' ->
        advance cur;
        body (a :: acc)
    | _ -> List.rev (a :: acc)
  in
  let body = body [] in
  skip_ws cur;
  (match peek cur with
  | None -> ()
  | Some c -> fail cur "trailing input starting with '%c'" c);
  Query.make head body

let run f text =
  let cur = { text; pos = 0 } in
  try Ok (f cur) with Parse_error msg -> Error msg

let parse_query text = run query text

let parse_query_exn text =
  match parse_query text with
  | Ok q -> q
  | Error msg -> invalid_arg ("Cq.Parser.parse_query_exn: " ^ msg)

let parse_program text =
  let lines = String.split_on_char '\n' text in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || (String.length line > 0 && line.[0] = '#') then
          go acc rest
        else
          (match parse_query line with
          | Ok q -> go (q :: acc) rest
          | Error msg -> Error (Printf.sprintf "%s in %S" msg line))
  in
  go [] lines
