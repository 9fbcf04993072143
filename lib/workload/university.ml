module Dtd = Xmlmodel.Dtd
module Xml = Xmlmodel.Xml
module Path = Xmlmodel.Path
module Template = Xmlmodel.Template

let berkeley_dtd =
  Dtd.make ~root:"schedule"
    [ ("schedule", Dtd.Children [ ("college", Dtd.Many) ]);
      ("college", Dtd.Children [ ("name", Dtd.One); ("dept", Dtd.Many) ]);
      ("dept", Dtd.Children [ ("name", Dtd.One); ("course", Dtd.Many) ]);
      ("course", Dtd.Children [ ("title", Dtd.One); ("size", Dtd.One) ]);
      ("name", Dtd.Pcdata); ("title", Dtd.Pcdata); ("size", Dtd.Pcdata) ]

let mit_dtd =
  Dtd.make ~root:"catalog"
    [ ("catalog", Dtd.Children [ ("course", Dtd.Many) ]);
      ("course", Dtd.Children [ ("name", Dtd.One); ("subject", Dtd.Many) ]);
      ("subject", Dtd.Children [ ("title", Dtd.One); ("enrollment", Dtd.One) ]);
      ("name", Dtd.Pcdata); ("title", Dtd.Pcdata); ("enrollment", Dtd.Pcdata) ]

let leaf tag value = Xml.element tag [ Xml.text value ]

let berkeley_instance prng ~colleges ~depts ~courses =
  Xml.element "schedule"
    (List.init colleges (fun c ->
         Xml.element "college"
           (leaf "name" (Printf.sprintf "college of %s" (Util.Prng.pick_arr prng Vocab.departments))
           :: List.init depts (fun d ->
                  Xml.element "dept"
                    (leaf "name"
                       (Printf.sprintf "%s dept %d-%d"
                          (Util.Prng.pick_arr prng Vocab.departments) c d)
                    :: List.init courses (fun _ ->
                           Xml.element "course"
                             [ leaf "title" (Vocab.course_title prng);
                               leaf "size"
                                 (string_of_int (10 + Util.Prng.int prng 290)) ]))))))

(* Figure 4, verbatim in our template language. *)
let berkeley_to_mit =
  Template.template
    (Template.elem "catalog"
       [ Template.elem
           ~binding:
             ( "c",
               Template.Document "Berkeley.xml",
               Path.of_string "college/dept" )
           "course"
           [ Template.elem "name" [ Template.Text_from ("c", Path.of_string "name/text()") ];
             Template.elem
               ~binding:("s", Template.Variable "c", Path.of_string "course")
               "subject"
               [ Template.elem "title"
                   [ Template.Text_from ("s", Path.of_string "title/text()") ];
                 Template.elem "enrollment"
                   [ Template.Text_from ("s", Path.of_string "size/text()") ] ] ] ])

module Sm = Corpus.Schema_model

let mediated_schema =
  Sm.make ~name:"university"
    ~joins:
      [ ("ta", "course_code", "course", "code");
        ("course", "instructor", "person", "name") ]
    [ Sm.relation "course"
        [ Sm.attribute "code"; Sm.attribute "title"; Sm.attribute "instructor";
          Sm.attribute "room"; Sm.attribute "time"; Sm.attribute "day";
          Sm.attribute "enrollment" ];
      Sm.relation "person"
        [ Sm.attribute "name"; Sm.attribute "email"; Sm.attribute "phone";
          Sm.attribute "office" ];
      Sm.relation "ta"
        [ Sm.attribute "name"; Sm.attribute "email"; Sm.attribute "course_code" ];
      Sm.relation "talk"
        [ Sm.attribute "speaker"; Sm.attribute "topic"; Sm.attribute "venue";
          Sm.attribute "when" ];
      Sm.relation "publication"
        [ Sm.attribute "author"; Sm.attribute "title"; Sm.attribute "venue";
          Sm.attribute "year" ] ]

let corpus_of_variants prng ~n ~level =
  let corpus = Corpus.Corpus_store.create () in
  for i = 1 to n do
    let variant =
      Perturb.perturb
        ~name:(Printf.sprintf "univ_%d" i)
        (Util.Prng.split prng) ~level mediated_schema
    in
    Corpus.Corpus_store.add_schema corpus variant.Perturb.perturbed
  done;
  corpus

type delearning = {
  catalog : Pdms.Catalog.t;
  peers : (string * Pdms.Peer.t) list;
  network : Pdms.Network.t;
  course_counts : (string * int) list;
}

let peer_course_schema = function
  | "stanford" -> ("class", [ "name"; "enrollment" ])
  | "oxford" -> ("course_unit", [ "title"; "students" ])
  | "mit" -> ("subject", [ "title"; "enrollment" ])
  | "tsinghua" -> ("kecheng", [ "mingcheng"; "renshu" ])
  | "roma" -> ("corso", [ "titolo"; "iscritti" ])
  | "berkeley" -> ("course", [ "title"; "size" ])
  | other -> invalid_arg ("University.peer_course_schema: unknown " ^ other)

(* The second relation every university carries: who teaches what, e.g.
   mit -> teacher(name, subject_title), roma -> docente(persona,
   titolo_corso). The second attribute joins with the course relation's
   title attribute. *)
let peer_instructor_schema = function
  | "stanford" -> ("faculty", [ "prof"; "class_name" ])
  | "oxford" -> ("tutor", [ "don"; "unit_title" ])
  | "mit" -> ("teacher", [ "name"; "subject_title" ])
  | "tsinghua" -> ("laoshi", [ "xingming"; "kecheng_mingcheng" ])
  | "roma" -> ("docente", [ "persona"; "titolo_corso" ])
  | "berkeley" -> ("instructor", [ "name"; "course_title" ])
  | other -> invalid_arg ("University.peer_instructor_schema: unknown " ^ other)

(* Figure 2's mapping edges (any connected graph works; this one follows
   the figure's layout). *)
let delearning_edges =
  [ ("stanford", "berkeley"); ("stanford", "mit"); ("mit", "oxford");
    ("mit", "tsinghua"); ("berkeley", "roma") ]

let course_query peer =
  let rel, attrs = peer_course_schema (Pdms.Peer.name peer) in
  let args = List.map (fun a -> Cq.Term.v ("Q" ^ a)) attrs in
  Cq.Query.make (Cq.Atom.make "ans" args) [ Pdms.Peer.atom peer rel args ]

let course_instructor_query peer =
  let crel, cattrs = peer_course_schema (Pdms.Peer.name peer) in
  let irel, _ = peer_instructor_schema (Pdms.Peer.name peer) in
  let title = Cq.Term.v "Title" and size = Cq.Term.v "Size" in
  let person = Cq.Term.v "Person" in
  ignore cattrs;
  Cq.Query.make
    (Cq.Atom.make "ans" [ title; person ])
    [ Pdms.Peer.atom peer crel [ title; size ];
      Pdms.Peer.atom peer irel [ person; title ] ]

let build_delearning prng ~courses_per_peer =
  let catalog = Pdms.Catalog.create () in
  let names = Array.to_list Vocab.universities in
  let peers =
    List.map
      (fun name ->
        let rel, attrs = peer_course_schema name in
        let irel, iattrs = peer_instructor_schema name in
        let peer =
          Pdms.Peer.create ~name ~schema:[ (rel, attrs); (irel, iattrs) ]
        in
        Pdms.Catalog.add_peer catalog peer;
        (name, peer))
      names
  in
  let course_counts =
    List.map
      (fun (name, peer) ->
        let rel, _ = peer_course_schema name in
        let irel, _ = peer_instructor_schema name in
        let stored = Pdms.Catalog.store_identity catalog peer ~rel in
        let stored_instr = Pdms.Catalog.store_identity catalog peer ~rel:irel in
        for _ = 1 to courses_per_peer do
          let title = Printf.sprintf "[%s] %s" name (Vocab.course_title prng) in
          Relalg.Relation.apply stored
            (Relalg.Relation.Delta.add
               [| Relalg.Value.Str title;
                  Relalg.Value.Int (10 + Util.Prng.int prng 290) |]);
          Relalg.Relation.apply stored_instr
            (Relalg.Relation.Delta.add
               [| Relalg.Value.Str (Vocab.person_name prng);
                  Relalg.Value.Str title |])
        done;
        (name, courses_per_peer))
      peers
  in
  let add_edge_mapping schema_of (a, b) =
    let pa = List.assoc a peers and pb = List.assoc b peers in
    let rel_a, attrs_a = schema_of a in
    let rel_b, _ = schema_of b in
    let args = List.mapi (fun i _ -> Cq.Term.v (Printf.sprintf "M%d" i)) attrs_a in
    let lhs = Cq.Query.make (Cq.Atom.make "m" args) [ Pdms.Peer.atom pa rel_a args ] in
    let rhs = Cq.Query.make (Cq.Atom.make "m" args) [ Pdms.Peer.atom pb rel_b args ] in
    ignore (Pdms.Catalog.add_mapping catalog (Pdms.Peer_mapping.equality ~lhs ~rhs))
  in
  List.iter
    (fun edge ->
      add_edge_mapping peer_course_schema edge;
      add_edge_mapping peer_instructor_schema edge)
    delearning_edges;
  let network = Pdms.Network.create () in
  List.iter (fun (name, _) -> Pdms.Network.add_peer network name) peers;
  List.iter
    (fun (a, b) ->
      Pdms.Network.connect network a b
        ~latency_ms:(20.0 +. Util.Prng.float prng 60.0))
    delearning_edges;
  { catalog; peers; network; course_counts }
