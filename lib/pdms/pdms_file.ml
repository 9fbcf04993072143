let strip = String.trim

let split_prefix line prefix =
  let lp = String.length prefix in
  if String.length line > lp && String.starts_with ~prefix line then
    Some (strip (String.sub line lp (String.length line - lp)))
  else None

(* The characters [String.trim] strips. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [s.[a .. b - 1]] without its leading and trailing blanks. *)
let trim_range s a b =
  let a = ref a and b = ref b in
  while !a < !b && is_blank s.[!a] do incr a done;
  while !b > !a && is_blank s.[!b - 1] do decr b done;
  (!a, !b)

(* The value of the field [s.[a .. b - 1]], already trimmed.  Single
   quotes force string interpretation (e.g. the course id '6.830');
   inside quotes, [''] is a literal quote and a backslash escapes a
   newline ([\n]), a carriage return ([\r]) or itself ([\\]), so a
   value never spills onto the next line.  Any other backslash is
   literal. *)
let field_value s a b =
  if b - a >= 2 && s.[a] = '\'' && s.[b - 1] = '\'' then begin
    let stop = b - 1 in
    let buf = Buffer.create (stop - a - 1) in
    let i = ref (a + 1) in
    while !i < stop do
      (* NUL stands for "no next character": it starts no escape. *)
      let next = if !i + 1 < stop then s.[!i + 1] else '\000' in
      match (s.[!i], next) with
      | ('\'' as c), '\'' | ('\\' as c), '\\' ->
          Buffer.add_char buf c;
          i := !i + 2
      | '\\', 'n' ->
          Buffer.add_char buf '\n';
          i := !i + 2
      | '\\', 'r' ->
          Buffer.add_char buf '\r';
          i := !i + 2
      | c, _ ->
          Buffer.add_char buf c;
          incr i
    done;
    Relalg.Value.Str (Buffer.contents buf)
  end
  else Relalg.Value.of_string (String.sub s a (b - a))

let parse_value v = field_value v 0 (String.length v)

(* The values of the row text [s.[pos .. stop - 1]], in one pass: it
   splits on top-level ['|'] only (a field whose first non-blank
   character is a quote runs, with [''] as a literal quote, to its
   closing quote, and any ['|'] inside it is data), then trims and
   reads each field where it lies. *)
let row_values s pos stop =
  let rec field start acc =
    let j = ref start in
    while !j < stop && (s.[!j] = ' ' || s.[!j] = '\t') do incr j done;
    if !j < stop && s.[!j] = '\'' then begin
      incr j;
      let closed = ref false in
      while (not !closed) && !j < stop do
        if s.[!j] = '\'' then
          if !j + 1 < stop && s.[!j + 1] = '\'' then j := !j + 2
          else begin
            closed := true;
            incr j
          end
        else incr j
      done
    end;
    while !j < stop && s.[!j] <> '|' do incr j done;
    let a, b = trim_range s start !j in
    let acc = field_value s a b :: acc in
    if !j < stop then field (!j + 1) acc else List.rev acc
  in
  field pos []

let parse_row s = row_values s 0 (String.length s)

(* Inverse of [parse_value] under the row scanner: a string value is
   single-quoted whenever writing it bare would re-parse differently —
   it looks numeric/boolean (Str "6.830", Str "42"), contains the '|'
   column separator or a line break, carries leading/trailing
   whitespace the field strip would eat, or starts/ends with a quote
   the scanner would misread.  Under quoting, interior quotes double
   and line breaks and backslashes are escaped. *)
let render_value v =
  match v with
  | Relalg.Value.Str s ->
      let n = String.length s in
      let needs_quoting =
        n > 0
        && (s <> strip s
           || String.exists (fun c -> c = '|' || c = '\n' || c = '\r') s
           || s.[0] = '\''
           || s.[n - 1] = '\''
           || (match Relalg.Value.of_string s with
              | Relalg.Value.Str _ -> false
              | _ -> true))
      in
      if needs_quoting then begin
        let b = Buffer.create (n + 2) in
        Buffer.add_char b '\'';
        String.iter
          (function
            | '\'' -> Buffer.add_string b "''"
            | '\\' -> Buffer.add_string b "\\\\"
            | '\n' -> Buffer.add_string b "\\n"
            | '\r' -> Buffer.add_string b "\\r"
            | c -> Buffer.add_char b c)
          s;
        Buffer.add_char b '\'';
        Buffer.contents b
      end
      else s
  | Relalg.Value.Float f -> Relalg.Value.float_literal f
  | v -> Relalg.Value.to_string v

type pending_mapping = {
  kind : [ `Equality | `Inclusion | `Definitional ];
  mutable lhs : Cq.Query.t option;
  mutable rhs : Cq.Query.t option;
  mutable rules : Cq.Query.t list;
}

(* A peer section: its relation declarations, checked against each
   other at their own line, and its peer from its first [store] line
   on.  That peer is the one registered under the section's name or,
   if there is none, one created once from every declaration and
   registered then (or at the section's end). *)
type section = {
  name : string;
  mutable decls : (string * string list) list;  (* newest first *)
  declared : (string, unit) Hashtbl.t;
  mutable peer : Peer.t option;
}

type state = {
  catalog : Catalog.t;
  mutable section : section option;
  mutable pending : pending_mapping option;
  (* The name and stored relation of the last row line, forgotten at
     every other line: consecutive rows of one relation find it
     without building and hashing its stored predicate. *)
  mutable last_row : (string * Relalg.Relation.t) option;
}

let ( let* ) = Result.bind

(* Schemas and mappings reject a duplicate attribute, an unsafe rule
   and heads of different arities with [Invalid_argument]; read from a
   file, that is an error of the line. *)
let checked make = try Ok (make ()) with Invalid_argument msg -> Error msg

(* The mappings the pending lines define so far ([[]] while a side is
   missing), built by their constructors, so each line is checked as it
   comes in. *)
let mappings p =
  match (p.kind, p.lhs, p.rhs, p.rules) with
  | `Equality, Some lhs, Some rhs, [] ->
      checked (fun () -> [ Peer_mapping.equality ~lhs ~rhs ])
  | `Inclusion, Some lhs, Some rhs, [] ->
      checked (fun () -> [ Peer_mapping.inclusion ~lhs ~rhs ])
  | `Definitional, None, None, rules ->
      checked (fun () -> List.map Peer_mapping.definitional rules)
  | `Definitional, _, _, _ -> Error "definitional mapping needs rule lines only"
  | (`Equality | `Inclusion), _, _, _ -> Ok []

let finish_mapping st =
  match st.pending with
  | None -> Ok ()
  | Some p -> (
      st.pending <- None;
      match mappings p with
      | Ok (_ :: _ as ms) ->
          List.iter (fun m -> ignore (Catalog.add_mapping st.catalog m)) ms;
          Ok ()
      | Ok [] when p.kind = `Definitional ->
          Error "definitional mapping needs rule lines only"
      | Ok [] ->
          Error "equality/inclusion mapping needs exactly lhs and rhs lines"
      | Error _ as e -> e)

(* The section's peer, found or created and registered on first need. *)
let register st sec =
  match sec.peer with
  | Some peer -> peer
  | None ->
      let peer =
        match Catalog.find_peer st.catalog sec.name with
        | Some peer -> peer
        | None ->
            let peer = Peer.create ~name:sec.name ~schema:(List.rev sec.decls) in
            Catalog.add_peer st.catalog peer;
            peer
      in
      sec.peer <- Some peer;
      peer

(* A peer section ends at the next [peer]/[mapping] line or EOF. *)
let flush_peer st =
  Option.iter (fun sec -> ignore (register st sec)) st.section;
  st.section <- None

let parse_relation_decl rest =
  match String.index_opt rest '(' with
  | None -> Error "relation declaration needs (attributes)"
  | Some i -> (
      let name = strip (String.sub rest 0 i) in
      let rest = String.sub rest (i + 1) (String.length rest - i - 1) in
      match String.index_opt rest ')' with
      | None -> Error "missing closing parenthesis"
      | Some j ->
          let attrs =
            String.sub rest 0 j |> String.split_on_char ','
            |> List.map strip
            |> List.filter (fun a -> a <> "")
          in
          if name = "" || attrs = [] then Error "bad relation declaration"
          else
            let* _ = checked (fun () -> Relalg.Schema.make name attrs) in
            Ok (name, attrs))

(* [s.[a .. b - 1]] is [name]. *)
let range_is s a b name =
  let n = String.length name in
  b - a = n
  &&
  let rec go k = k = n || (s.[a + k] = name.[k] && go (k + 1)) in
  go 0

(* A row line [s.[a .. b - 1]] (trimmed, starting ["row "]), read where
   it lies in the text. *)
let row_line st s a b =
  let rec colon i =
    if i >= b then None else if s.[i] = ':' then Some i else colon (i + 1)
  in
  match colon (a + 4) with
  | None -> Error "row needs 'rel: v | v | ...'"
  | Some i -> (
      let ra, rb = trim_range s (a + 4) i in
      let stored =
        match (st.last_row, st.section) with
        | Some (rel, stored), _ when range_is s ra rb rel -> Ok stored
        | _, None -> Error "row outside a peer section"
        | _, Some sec -> (
            let rel = String.sub s ra (rb - ra) in
            match
              Option.bind sec.peer (fun peer ->
                  Relalg.Database.find_opt (Peer.stored_db peer)
                    (Peer.stored_pred peer rel))
            with
            | None -> Error ("row before 'store " ^ rel ^ "'")
            | Some stored ->
                st.last_row <- Some (rel, stored);
                Ok stored)
      in
      let* stored = stored in
      let values = row_values s (i + 1) b in
      let want = Relalg.Schema.arity (Relalg.Relation.schema stored)
      and got = List.length values in
      if got <> want then
        Error
          (Printf.sprintf "row %s: expected %d values, got %d"
             (String.sub s ra (rb - ra)) want got)
      else begin
        Relalg.Relation.apply stored
          (Relalg.Relation.Delta.add (Array.of_list values));
        Ok ()
      end)

(* Any other line, trimmed. *)
let other_line st line =
  match split_prefix line "peer " with
  | Some name ->
      let* () = finish_mapping st in
      flush_peer st;
      st.section <-
        Some { name; decls = []; declared = Hashtbl.create 8; peer = None };
      Ok ()
  | None -> (
      match split_prefix line "relation " with
      | Some rest -> (
          match st.section with
          | None -> Error "relation outside a peer section"
          | Some { name; _ } when Catalog.find_peer st.catalog name <> None ->
              (* A registered peer's schema is fixed. *)
              Error ("relation after peer " ^ name ^ " was registered")
          | Some sec ->
              let* rel, attrs = parse_relation_decl rest in
              if Hashtbl.mem sec.declared rel then
                Error ("relation " ^ rel ^ " declared twice in peer " ^ sec.name)
              else begin
                Hashtbl.replace sec.declared rel ();
                sec.decls <- (rel, attrs) :: sec.decls;
                Ok ()
              end)
      | None -> (
          match split_prefix line "store " with
          | Some rel -> (
              match st.section with
              | None -> Error "store outside a peer section"
              | Some sec ->
                  (* The peer must be registered before store_identity. *)
                  let peer = register st sec in
                  if Peer.attrs peer rel <> None then
                    Ok (ignore (Catalog.store_identity st.catalog peer ~rel))
                  else Error ("store of undeclared relation " ^ rel))
          | None -> (
              match split_prefix line "mapping " with
              | Some kind_str ->
                  let* () = finish_mapping st in
                  flush_peer st;
                  let* kind =
                    match kind_str with
                    | "equality" -> Ok `Equality
                    | "inclusion" -> Ok `Inclusion
                    | "definitional" -> Ok `Definitional
                    | other -> Error ("unknown mapping kind " ^ other)
                  in
                  st.pending <- Some { kind; lhs = None; rhs = None; rules = [] };
                  Ok ()
              | None -> (
                  let parse_side p setter rest =
                    let* q = Cq.Parser.parse_query rest in
                    setter q;
                    Result.map ignore (mappings p)
                  in
                  match (split_prefix line "lhs ", st.pending) with
                  | Some rest, Some p ->
                      parse_side p (fun q -> p.lhs <- Some q) rest
                  | Some _, None -> Error "lhs outside a mapping section"
                  | None, _ -> (
                      match (split_prefix line "rhs ", st.pending) with
                      | Some rest, Some p ->
                          parse_side p (fun q -> p.rhs <- Some q) rest
                      | Some _, None -> Error "rhs outside a mapping section"
                      | None, _ -> (
                          match (split_prefix line "rule ", st.pending) with
                          | Some rest, Some p ->
                              parse_side p
                                (fun q -> p.rules <- p.rules @ [ q ])
                                rest
                          | Some _, None -> Error "rule outside a mapping section"
                          | None, _ -> Error ("unrecognised line: " ^ line)))))))

(* A trimmed, non-empty line [s.[a .. b - 1]]: a row line is read where
   it lies, any other is copied out first. *)
let handle_line st s a b =
  if b - a > 4 && range_is s a (a + 4) "row " then row_line st s a b
  else begin
    st.last_row <- None;
    other_line st (String.sub s a (b - a))
  end

(* The lines are those of [String.split_on_char '\n' text], each
   found where it lies. *)
let parse text =
  let st =
    {
      catalog = Catalog.create ();
      section = None;
      pending = None;
      last_row = None;
    }
  in
  let n = String.length text in
  let rec go lineno pos =
    if pos > n then begin
      let* () =
        Result.map_error
          (Printf.sprintf "line %d: %s" (lineno - 1))
          (finish_mapping st)
      in
      flush_peer st;
      Ok st.catalog
    end
    else
      let eol = Option.value ~default:n (String.index_from_opt text pos '\n') in
      let a, b = trim_range text pos eol in
      match if a = b || text.[a] = '#' then Ok () else handle_line st text a b with
      | Ok () -> go (lineno + 1) (eol + 1)
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
  in
  go 1 0

let parse_exn text =
  match parse text with
  | Ok c -> c
  | Error msg -> invalid_arg ("Pdms_file.parse_exn: " ^ msg)

(* Mapping rules render with type-exact constants, unlike
   {!Cq.Query.to_string}, which quotes every constant (so [Int 1] would
   read back as [Str "1"]): bare ints and booleans, floats as
   {!Relalg.Value.float_literal}, anything else quoted with interior
   quotes doubled. *)
let render_term = function
  | Cq.Term.Var x -> x
  | Cq.Term.Const ((Relalg.Value.Int _ | Relalg.Value.Bool _) as v) ->
      Relalg.Value.to_string v
  | Cq.Term.Const (Relalg.Value.Float f) -> Relalg.Value.float_literal f
  | Cq.Term.Const v ->
      let s = Relalg.Value.to_string v in
      "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let render_atom (a : Cq.Atom.t) =
  Printf.sprintf "%s(%s)" a.pred
    (String.concat ", " (List.map render_term a.args))

let render_query (q : Cq.Query.t) =
  Printf.sprintf "%s :- %s" (render_atom q.head)
    (String.concat ", " (List.map render_atom q.body))

let render catalog =
  let buf = Buffer.create 1024 in
  List.iter
    (fun peer ->
      Buffer.add_string buf (Printf.sprintf "peer %s\n" (Peer.name peer));
      List.iter
        (fun (rel, attrs) ->
          Buffer.add_string buf
            (Printf.sprintf "relation %s(%s)\n" rel (String.concat ", " attrs)))
        (Peer.schema peer);
      List.iter
        (fun stored_name ->
          (* stored preds look like "peer.rel!" *)
          match String.index_opt stored_name '.' with
          | Some i
            when String.length stored_name > 0
                 && stored_name.[String.length stored_name - 1] = '!' ->
              let rel =
                String.sub stored_name (i + 1)
                  (String.length stored_name - i - 2)
              in
              Buffer.add_string buf (Printf.sprintf "store %s\n" rel);
              let relation =
                Relalg.Database.find (Peer.stored_db peer) stored_name
              in
              List.iter
                (fun row ->
                  Buffer.add_string buf
                    (Printf.sprintf "row %s: %s\n" rel
                       (String.concat " | "
                          (Array.to_list (Array.map render_value row)))))
                (Relalg.Relation.tuples relation)
          | Some _ | None -> ())
        (Peer.stored_preds peer);
      Buffer.add_char buf '\n')
    (Catalog.peers catalog);
  List.iter
    (fun (_, mapping) ->
      match mapping with
      | Peer_mapping.Definitional rule ->
          Buffer.add_string buf "mapping definitional\n";
          Buffer.add_string buf
            (Printf.sprintf "rule %s\n\n" (render_query rule))
      | Peer_mapping.Glav g ->
          let kind =
            match g.Rewrite.Glav.kind with
            | Rewrite.Glav.Equality -> "equality"
            | Rewrite.Glav.Inclusion -> "inclusion"
          in
          Buffer.add_string buf (Printf.sprintf "mapping %s\n" kind);
          Buffer.add_string buf
            (Printf.sprintf "lhs %s\n" (render_query g.Rewrite.Glav.lhs));
          Buffer.add_string buf
            (Printf.sprintf "rhs %s\n\n" (render_query g.Rewrite.Glav.rhs)))
    (Catalog.mappings catalog);
  Buffer.contents buf
