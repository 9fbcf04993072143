type t = { url : string; title : string; body : Xmlmodel.Xml.t }

let make ~url ~title body = { url; title; body }

let node_at doc path =
  let rec go node = function
    | [] -> Some node
    | i :: rest -> (
        match List.nth_opt (Xmlmodel.Xml.children node) i with
        | Some child -> go child rest
        | None -> None)
  in
  go doc.body path

let nodes doc =
  let rec go path node acc =
    let acc = (List.rev path, node) :: acc in
    List.fold_left
      (fun (i, acc) child -> (i + 1, go (i :: path) child acc))
      (0, acc)
      (Xmlmodel.Xml.children node)
    |> snd
  in
  List.rev (go [] doc.body [])

let contains_ci haystack needle =
  let h = String.lowercase_ascii haystack and n = String.lowercase_ascii needle in
  let lh = String.length h and ln = String.length n in
  let rec go i = i + ln <= lh && (String.sub h i ln = n || go (i + 1)) in
  ln = 0 || go 0

let find_text doc needle =
  List.filter_map
    (fun (path, node) ->
      match node with
      | Xmlmodel.Xml.Text s when contains_ci s needle -> Some (path, s)
      | Xmlmodel.Xml.Text _ | Xmlmodel.Xml.Element _ -> None)
    (nodes doc)

let text_at doc path =
  Option.map Xmlmodel.Xml.text_content (node_at doc path)

let word_count doc =
  List.length (Util.Tokenize.words (Xmlmodel.Xml.text_content doc.body))
