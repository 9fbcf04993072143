(* ['>'] must be escaped everywhere, not just inside quotes: subjects,
   predicates and source URLs are angle-delimited, so a raw ['>'] in a
   URL ends the token early and the rest of the line fails to parse (or
   silently lands in the wrong field).  ['\r'] is escaped alongside
   ['\n'] so a value never spills across the line-oriented format (and
   CRLF-translated files cannot corrupt a trailing field). *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '>' -> Buffer.add_string buf "\\>"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | c -> Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

(* Objects carry their type: a string is a plain literal, any other
   value a literal with a datatype IRI. On import an unmarked literal
   stays a string, so ["5."] or ["\n6"] come back as they went out. *)
let xsd = "http://www.w3.org/2001/XMLSchema#"
let int_type = xsd ^ "integer"
let float_type = xsd ^ "double"
let bool_type = xsd ^ "boolean"
let null_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"

let render_object (v : Relalg.Value.t) =
  let typed lexical iri = Printf.sprintf "\"%s\"^^<%s>" lexical iri in
  match v with
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Int i -> typed (string_of_int i) int_type
  | Float f -> typed (Relalg.Value.float_literal f) float_type
  | Bool b -> typed (string_of_bool b) bool_type
  | Null -> typed "" null_type

let typed_object lexical iri : (Relalg.Value.t, string) result =
  let parsed of_string make =
    match of_string lexical with
    | Some x -> Ok (make x)
    | None -> Error ("bad " ^ iri ^ " literal")
  in
  if iri = int_type then parsed int_of_string_opt (fun i -> Relalg.Value.Int i)
  else if iri = float_type then
    parsed float_of_string_opt (fun f -> Relalg.Value.Float f)
  else if iri = bool_type then
    parsed bool_of_string_opt (fun b -> Relalg.Value.Bool b)
  else if iri = null_type && lexical = "" then Ok Relalg.Value.Null
  else Error ("unknown datatype <" ^ iri ^ ">")

let render_line (tr : Triple_store.triple) =
  let prov = tr.Triple_store.prov in
  Printf.sprintf "<%s> <%s> %s . # <%s> %d%s"
    (escape tr.Triple_store.subj)
    (escape tr.Triple_store.pred)
    (render_object tr.Triple_store.obj)
    (escape prov.Provenance.source_url)
    prov.Provenance.timestamp
    (match prov.Provenance.author with None -> "" | Some a -> " " ^ escape a)

let export store =
  Triple_store.triples store
  |> List.map render_line
  |> List.sort String.compare
  |> String.concat "\n"
  |> fun body -> if body = "" then "" else body ^ "\n"

(* Scan an angle- or quote-delimited token starting at [i] (which must
   point at the opener); returns (content, position after closer).
   Backslash escapes are honoured inside quotes. *)
let delimited line i opener closer =
  if i >= String.length line || line.[i] <> opener then
    Error (Printf.sprintf "expected '%c' at column %d" opener i)
  else
    let rec find j =
      if j >= String.length line then Error "unterminated token"
      else if line.[j] = '\\' then find (j + 2)
      else if line.[j] = closer then
        Ok (unescape (String.sub line (i + 1) (j - i - 1)), j + 1)
      else find (j + 1)
    in
    find (i + 1)

let skip_ws line i =
  let n = String.length line in
  let rec go i = if i < n && line.[i] = ' ' then go (i + 1) else i in
  go i

let parse_line line =
  let ( let* ) = Result.bind in
  let i = skip_ws line 0 in
  let* subj, i = delimited line i '<' '>' in
  let i = skip_ws line i in
  let* pred, i = delimited line i '<' '>' in
  let i = skip_ws line i in
  let* lexical, i = delimited line i '"' '"' in
  let* obj, i =
    if i + 1 < String.length line && line.[i] = '^' && line.[i + 1] = '^' then
      let* iri, i = delimited line (i + 2) '<' '>' in
      let* obj = typed_object lexical iri in
      Ok (obj, i)
    else Ok (Relalg.Value.Str lexical, i)
  in
  let i = skip_ws line i in
  let* i =
    if i < String.length line && line.[i] = '.' then Ok (i + 1)
    else Error "expected '.'"
  in
  let i = skip_ws line i in
  let* i =
    if i < String.length line && line.[i] = '#' then Ok (skip_ws line (i + 1))
    else Error "expected provenance comment"
  in
  let* source_url, i = delimited line i '<' '>' in
  let i = skip_ws line i in
  let rest = String.sub line i (String.length line - i) in
  let* timestamp, author =
    match String.split_on_char ' ' (String.trim rest) with
    | [ ts ] | [ ts; "" ] -> (
        match int_of_string_opt ts with
        | Some t -> Ok (t, None)
        | None -> Error "bad timestamp")
    | ts :: author -> (
        match int_of_string_opt ts with
        | Some t -> Ok (t, Some (unescape (String.concat " " author)))
        | None -> Error "bad timestamp")
    | [] -> Error "missing timestamp"
  in
  Ok (subj, pred, obj, Provenance.make ?author ~source_url ~timestamp ())

let import text =
  let store = Triple_store.create () in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok store
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) rest
        else (
          match parse_line line with
          | Ok (subj, pred, obj, prov) ->
              Triple_store.add store ~subj ~pred ~obj ~prov;
              go (lineno + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 lines

let import_exn text =
  match import text with
  | Ok store -> store
  | Error msg -> invalid_arg ("Ntriples.import_exn: " ^ msg)
