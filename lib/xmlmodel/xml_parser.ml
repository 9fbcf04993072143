type cursor = { text : string; mutable pos : int }

exception Error of string

let fail cur fmt =
  Printf.ksprintf
    (fun msg -> raise (Error (Printf.sprintf "%s (at offset %d)" msg cur.pos)))
    fmt

let peek cur =
  if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let peek2 cur =
  if cur.pos + 1 < String.length cur.text then Some cur.text.[cur.pos + 1]
  else None

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

let starts_with cur prefix =
  let lp = String.length prefix in
  cur.pos + lp <= String.length cur.text
  && String.sub cur.text cur.pos lp = prefix

let skip_past cur marker what =
  let rec go () =
    if starts_with cur marker then cur.pos <- cur.pos + String.length marker
    else if cur.pos >= String.length cur.text then
      fail cur "unterminated %s" what
    else begin
      advance cur;
      go ()
    end
  in
  go ()

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let name cur =
  let start = cur.pos in
  let rec go () =
    match peek cur with
    | Some c when is_name_char c ->
        advance cur;
        go ()
    | Some _ | None -> ()
  in
  go ();
  if cur.pos = start then fail cur "expected a name";
  String.sub cur.text start (cur.pos - start)

let entity cur =
  (* '&' consumed. *)
  let start = cur.pos in
  let rec go () =
    match peek cur with
    | Some ';' ->
        let e = String.sub cur.text start (cur.pos - start) in
        advance cur;
        e
    | Some _ ->
        advance cur;
        if cur.pos - start > 8 then fail cur "unterminated entity" else go ()
    | None -> fail cur "unterminated entity"
  in
  match go () with
  | "lt" -> '<'
  | "gt" -> '>'
  | "amp" -> '&'
  | "quot" -> '"'
  | "apos" -> '\''
  | other -> fail cur "unknown entity &%s;" other

let text_until_tag cur =
  let buf = Buffer.create 32 in
  let rec go () =
    match peek cur with
    | Some '<' | None -> Buffer.contents buf
    | Some '&' ->
        advance cur;
        Buffer.add_char buf (entity cur);
        go ()
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let attr_value cur =
  skip_ws cur;
  let quote =
    match peek cur with
    | Some ('"' as q) | Some ('\'' as q) ->
        advance cur;
        q
    | _ -> fail cur "expected a quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | Some c when c = quote ->
        advance cur;
        Buffer.contents buf
    | Some '&' ->
        advance cur;
        Buffer.add_char buf (entity cur);
        go ()
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
    | None -> fail cur "unterminated attribute value"
  in
  go ()

let rec skip_misc cur =
  skip_ws cur;
  if starts_with cur "<!--" then begin
    skip_past cur "-->" "comment";
    skip_misc cur
  end
  else if starts_with cur "<?" then begin
    skip_past cur "?>" "processing instruction";
    skip_misc cur
  end
  else if starts_with cur "<!DOCTYPE" then begin
    skip_past cur ">" "doctype";
    skip_misc cur
  end

(* After '<': the tag name and attributes, up to and including the
   closing '>' or '/>'. *)
let start_tag cur =
  (match peek cur with
  | Some '<' -> advance cur
  | _ -> fail cur "expected '<'");
  let tag = name cur in
  let rec attrs acc =
    skip_ws cur;
    match peek cur with
    | Some '/' ->
        advance cur;
        (match peek cur with
        | Some '>' ->
            advance cur;
            `Selfclosing (tag, List.rev acc)
        | _ -> fail cur "expected '>' after '/'")
    | Some '>' ->
        advance cur;
        `Open (tag, List.rev acc)
    | Some c when is_name_char c ->
        let key = name cur in
        skip_ws cur;
        (match peek cur with
        | Some '=' -> advance cur
        | _ -> fail cur "expected '=' after attribute %s" key);
        attrs ((key, attr_value cur) :: acc)
    | Some c -> fail cur "unexpected '%c' in tag <%s>" c tag
    | None -> fail cur "unterminated tag <%s>" tag
  in
  attrs []

(* An element open but not yet closed: its tag, attributes and the
   children read so far, newest first. *)
type frame = {
  tag : string;
  attrs : (string * string) list;
  mutable kids : Xml.t list;
}

let close f = Xml.element ~attrs:f.attrs f.tag (List.rev f.kids)

(* One element and everything inside it.  Open elements are kept on an
   explicit stack, innermost first, so nesting depth costs heap cells
   rather than call frames. *)
let element cur =
  let rec content = function
    | [] -> assert false
    | top :: outer as stack ->
        let txt = text_until_tag cur in
        if String.trim txt <> "" then top.kids <- Xml.text txt :: top.kids;
        if starts_with cur "<!--" then begin
          skip_past cur "-->" "comment";
          content stack
        end
        else if starts_with cur "</" then begin
          cur.pos <- cur.pos + 2;
          let closing = name cur in
          if not (String.equal closing top.tag) then
            fail cur "mismatched </%s>, expected </%s>" closing top.tag;
          skip_ws cur;
          (match peek cur with
          | Some '>' -> advance cur
          | _ -> fail cur "expected '>' in closing tag");
          match outer with
          | [] -> close top
          | parent :: _ ->
              parent.kids <- close top :: parent.kids;
              content outer
        end
        else if peek cur = Some '<' && peek2 cur <> None then
          match start_tag cur with
          | `Selfclosing (tag, attrs) ->
              top.kids <- Xml.element ~attrs tag [] :: top.kids;
              content stack
          | `Open (tag, attrs) -> content ({ tag; attrs; kids = [] } :: stack)
        else fail cur "unterminated element <%s>" top.tag
  in
  match start_tag cur with
  | `Selfclosing (tag, attrs) -> Xml.element ~attrs tag []
  | `Open (tag, attrs) -> content [ { tag; attrs; kids = [] } ]

let parse input =
  let cur = { text = input; pos = 0 } in
  try
    skip_misc cur;
    match peek cur with
    | Some '<' ->
        let root = element cur in
        skip_misc cur;
        (match peek cur with
        | None -> Ok root
        | Some c -> Error (Printf.sprintf "trailing content '%c'" c))
    | _ -> Error "expected a root element"
  with Error msg -> Result.Error msg

let parse_exn input =
  match parse input with
  | Ok x -> x
  | Error msg -> invalid_arg ("Xml_parser.parse_exn: " ^ msg)

let rec strip_ws_text node =
  match node with
  | Xml.Text s -> if String.trim s = "" then None else Some (Xml.Text (String.trim s))
  | Xml.Element (tag, attrs, children) ->
      Some (Xml.Element (tag, attrs, List.filter_map strip_ws_text children))

let roundtrip t =
  match strip_ws_text (parse_exn (Xml.to_string t)) with
  | Some x -> x
  | None -> Xml.text ""
