let strip = String.trim

let split_prefix line prefix =
  let lp = String.length prefix in
  if String.length line > lp && String.sub line 0 lp = prefix then
    Some (strip (String.sub line lp (String.length line - lp)))
  else None

(* One row value, already stripped of surrounding whitespace.  Single
   quotes force string interpretation (e.g. the course id '6.830');
   inside quotes, [''] is a literal quote and a backslash escapes a
   newline ([\n]), a carriage return ([\r]) or itself ([\\]), so a
   value never spills onto the next line.  Any other backslash is
   literal. *)
let parse_value v =
  let n = String.length v in
  if n >= 2 && v.[0] = '\'' && v.[n - 1] = '\'' then begin
    let inner = String.sub v 1 (n - 2) in
    let m = String.length inner in
    let b = Buffer.create m in
    let i = ref 0 in
    while !i < m do
      (* NUL stands for "no next character": it starts no escape. *)
      let next = if !i + 1 < m then inner.[!i + 1] else '\000' in
      match (inner.[!i], next) with
      | ('\'' as c), '\'' | ('\\' as c), '\\' ->
          Buffer.add_char b c;
          i := !i + 2
      | '\\', 'n' ->
          Buffer.add_char b '\n';
          i := !i + 2
      | '\\', 'r' ->
          Buffer.add_char b '\r';
          i := !i + 2
      | c, _ ->
          Buffer.add_char b c;
          incr i
    done;
    Relalg.Value.Str (Buffer.contents b)
  end
  else Relalg.Value.of_string v

(* Split a row's value list on top-level ['|'] only: a field whose
   first non-blank character is a quote runs (with [''] as a literal
   quote) to its closing quote, and any ['|'] inside it is data, not a
   separator.  Fields come back unstripped. *)
let split_row s =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  while !i <= n do
    let start = !i in
    let j = ref start in
    while !j < n && (s.[!j] = ' ' || s.[!j] = '\t') do incr j done;
    if !j < n && s.[!j] = '\'' then begin
      incr j;
      let closed = ref false in
      while (not !closed) && !j < n do
        if s.[!j] = '\'' then
          if !j + 1 < n && s.[!j + 1] = '\'' then j := !j + 2
          else begin
            closed := true;
            incr j
          end
        else incr j
      done
    end;
    while !j < n && s.[!j] <> '|' do incr j done;
    fields := String.sub s start (!j - start) :: !fields;
    i := !j + 1
  done;
  List.rev !fields

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

type state = {
  catalog : Catalog.t;
  mutable current_peer : Peer.t option;
  mutable pending : pending_mapping option;
}

let ( let* ) = Result.bind

(* Schemas, peers and mappings reject a duplicate attribute or relation,
   an unsafe rule and heads of different arities with
   [Invalid_argument]; read from a file, that is an error of the line. *)
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

let registered st name =
  List.exists (fun p -> Peer.name p = name) (Catalog.peers st.catalog)

(* Register the in-progress peer (a peer section ends at the next
   [peer]/[mapping] line or EOF). *)
let flush_peer st =
  (match st.current_peer with
  | Some peer when not (registered st (Peer.name peer)) ->
      Catalog.add_peer st.catalog peer
  | Some _ | None -> ());
  st.current_peer <- None

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

let handle_line st line =
  match split_prefix line "peer " with
  | Some name ->
      let* () = finish_mapping st in
      flush_peer st;
      (* Relations accumulate on following lines; the peer object is
         rebuilt per relation line and registered when the section ends
         (or at the first [store] line, which needs the catalog). *)
      st.current_peer <- Some (Peer.create ~name ~schema:[]);
      Ok ()
  | None -> (
      match split_prefix line "relation " with
      | Some rest -> (
          match st.current_peer with
          | None -> Error "relation outside a peer section"
          | Some peer when registered st (Peer.name peer) ->
              (* A registered peer's schema is fixed. *)
              Error
                ("relation after peer " ^ Peer.name peer ^ " was registered")
          | Some peer ->
              let* name, attrs = parse_relation_decl rest in
              let* peer =
                checked (fun () ->
                    Peer.create ~name:(Peer.name peer)
                      ~schema:(Peer.schema peer @ [ (name, attrs) ]))
              in
              st.current_peer <- Some peer;
              Ok ())
      | None -> (
          match split_prefix line "store " with
          | Some rel -> (
              match st.current_peer with
              | None -> Error "store outside a peer section"
              | Some peer ->
                  (* The peer must be registered before store_identity. *)
                  if not (registered st (Peer.name peer)) then
                    Catalog.add_peer st.catalog peer;
                  let peer = Catalog.peer st.catalog (Peer.name peer) in
                  st.current_peer <- Some peer;
                  if List.mem_assoc rel (Peer.schema peer) then
                    Ok (ignore (Catalog.store_identity st.catalog peer ~rel))
                  else Error ("store of undeclared relation " ^ rel))
          | None -> (
              match split_prefix line "row " with
              | Some rest -> (
                  match String.index_opt rest ':' with
                  | None -> Error "row needs 'rel: v | v | ...'"
                  | Some i -> (
                      let rel = strip (String.sub rest 0 i) in
                      let values =
                        String.sub rest (i + 1) (String.length rest - i - 1)
                        |> split_row |> List.map strip
                        |> List.map parse_value
                      in
                      match st.current_peer with
                      | None -> Error "row outside a peer section"
                      | Some peer -> (
                          match
                            Relalg.Database.find_opt (Peer.stored_db peer)
                              (Peer.stored_pred peer rel)
                          with
                          | None -> Error ("row before 'store " ^ rel ^ "'")
                          | Some stored ->
                              let want =
                                Relalg.Schema.arity (Relalg.Relation.schema stored)
                              and got = List.length values
                              in
                              if got <> want then
                                Error
                                  (Printf.sprintf
                                     "row %s: expected %d values, got %d" rel
                                     want got)
                              else begin
                                Relalg.Relation.apply stored
                                  (Relalg.Relation.Delta.add
                                     (Array.of_list values));
                                Ok ()
                              end)))
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
                      st.pending <-
                        Some { kind; lhs = None; rhs = None; rules = [] };
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
                              | Some _, None ->
                                  Error "rule outside a mapping section"
                              | None, _ ->
                                  Error ("unrecognised line: " ^ line))))))))

let parse text =
  let st =
    { catalog = Catalog.create (); current_peer = None; pending = None }
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] ->
        let* () =
          Result.map_error
            (Printf.sprintf "line %d: %s" (lineno - 1))
            (finish_mapping st)
        in
        flush_peer st;
        Ok st.catalog
    | line :: rest -> (
        let trimmed = strip line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) rest
        else
          match handle_line st trimmed with
          | Ok () -> go (lineno + 1) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 lines

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
