(* The experiment harness: one function per experiment of DESIGN.md's
   per-experiment index (E1-E9). Each prints an aligned table; the rows
   are what EXPERIMENTS.md records. All experiments are deterministic
   (seeded PRNGs); timings are CPU time and will vary by machine, while
   counters (nodes expanded, rewritings, accuracies) are exact. *)

module T = Util.Ascii_table

let time_ms f =
  let t0 = Sys.time () in
  let result = f () in
  ((Sys.time () -. t0) *. 1000.0, result)

(* Wall-clock milliseconds of [f ()], with its result. *)
let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  ((Unix.gettimeofday () -. t0) *. 1000.0, result)

let header id claim =
  Printf.printf "\n## %s — %s\n\n" id claim

(* ------------------------------------------------------------------ *)
(* E1: reformulation cost vs. number of peers, per topology (claim C3),
   for a single-atom query, the two-atom join and the three-atom chain.
   A join's search runs once per goal, so its nodes grow with the sum of
   the goals' alternatives; its rewritings (the product of the goals'
   unions) grow with their product. *)

let e1_sized sizes () =
  header "E1" "PDMS reformulation cost vs. #peers and topology";
  let table =
    T.create
      [ "topology"; "peers"; "mappings"; "query"; "time_ms"; "reform_ms";
        "rewritings"; "nodes"; "answers" ]
  in
  let prng = Util.Prng.create 1 in
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          let topology = Pdms.Topology.generate ~prng kind ~n in
          let g =
            Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
              ~tuples_per_peer:4 ~with_join:true ()
          in
          let catalog = g.Workload.Peers_gen.catalog in
          List.iter
            (fun (name, query) ->
              let reform_ms, _ =
                time_ms (fun () -> Pdms.Reformulate.reformulate catalog query)
              in
              let ms, result = time_ms (fun () -> Pdms.Answer.answer catalog query) in
              let stats = result.Pdms.Answer.outcome.Pdms.Reformulate.stats in
              T.add_row table
                [ Pdms.Topology.kind_name kind; T.cell_i n;
                  T.cell_i (Pdms.Catalog.mapping_count catalog); name;
                  T.cell_f ms; T.cell_f reform_ms;
                  T.cell_i stats.Pdms.Reformulate.emitted;
                  T.cell_i stats.Pdms.Reformulate.nodes_expanded;
                  T.cell_i (Relalg.Relation.cardinality result.Pdms.Answer.answers) ])
            [ ("course", Workload.Peers_gen.course_query g ~at:0);
              ("join", Workload.Peers_gen.join_query g ~at:0);
              ("chain", Workload.Peers_gen.chain_query g ~at:0) ])
        sizes)
    [ Pdms.Topology.Chain; Pdms.Topology.Binary_tree; Pdms.Topology.Mesh 1 ];
  T.print table

let e1 () = e1_sized [ 4; 8; 16; 32; 48 ] ()

(* ------------------------------------------------------------------ *)
(* E2: pruning ablation (claim C3) *)

let e2 () =
  header "E2" "pruning heuristics ablation (cyclic mesh, n=12, depth cap 12)";
  let prng = Util.Prng.create 2 in
  let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 1) ~n:12 in
  let g =
    Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
      ~tuples_per_peer:3 ()
  in
  let query = Workload.Peers_gen.course_query g ~at:0 in
  let base =
    { Pdms.Exec.no_pruning with Pdms.Exec.max_depth = 12 }
  in
  let configs =
    [ ("none", base);
      ("history", { base with Pdms.Exec.use_history = true });
      ("+goal-memo",
       { base with Pdms.Exec.use_history = true; use_goal_memo = true });
      ("all (default)", Pdms.Exec.default_pruning) ]
  in
  let table =
    T.create [ "pruning"; "time_ms"; "nodes"; "rewritings"; "answers" ]
  in
  List.iter
    (fun (name, pruning) ->
      let ms, result =
        time_ms (fun () ->
            Pdms.Answer.answer ~exec:(Pdms.Exec.with_pruning pruning)
              g.Workload.Peers_gen.catalog query)
      in
      let stats = result.Pdms.Answer.outcome.Pdms.Reformulate.stats in
      T.add_row table
        [ name; T.cell_f ms; T.cell_i stats.Pdms.Reformulate.nodes_expanded;
          T.cell_i stats.Pdms.Reformulate.emitted;
          T.cell_i (Relalg.Relation.cardinality result.Pdms.Answer.answers) ])
    configs;
  T.print table

(* ------------------------------------------------------------------ *)
(* E3: MiniCon vs. Bucket *)

let e3 () =
  header "E3" "MiniCon vs. Bucket rewriting cost (chain queries)";
  let v = Cq.Term.v in
  (* Distinct predicate per position (as in the original MiniCon
     evaluation): e0(X0,X1), e1(X1,X2), ... *)
  let chain_query len =
    let body =
      List.init len (fun i ->
          Cq.Atom.make (Printf.sprintf "e%d" i)
            [ v (Printf.sprintf "X%d" i); v (Printf.sprintf "X%d" (i + 1)) ])
    in
    Cq.Query.make
      (Cq.Atom.make "q" [ v "X0"; v (Printf.sprintf "X%d" len) ])
      body
  in
  (* Relevant views: every distinct subchain of length 1 or 2, exposing
     only its endpoints (projection views — the regime where MiniCon's
     MCD conditions pay off). Our Bucket implementation omits the
     classic algorithm's equality-repair step, so it additionally misses
     rewritings here (reported as bk_rw < mc_rw); its candidate count is
     the cost metric. Distractors: views over unrelated predicates,
     inflating the catalog the way a large PDMS does. *)
  let views len distractors =
    let relevant =
      List.concat_map
        (fun start ->
          List.filter_map
            (fun vlen ->
              if start + vlen > len then None
              else
                let body =
                  List.init vlen (fun i ->
                      Cq.Atom.make (Printf.sprintf "e%d" (start + i))
                        [ v (Printf.sprintf "A%d" (start + i));
                          v (Printf.sprintf "A%d" (start + i + 1)) ])
                in
                let head_args =
                  [ v (Printf.sprintf "A%d" start);
                    v (Printf.sprintf "A%d" (start + vlen)) ]
                in
                Some
                  (Cq.Query.make
                     (Cq.Atom.make (Printf.sprintf "v_%d_%d" start vlen) head_args)
                     body))
            [ 1; 2 ])
        (List.init len Fun.id)
    in
    let noise =
      List.init distractors (fun k ->
          Cq.Query.make
            (Cq.Atom.make (Printf.sprintf "w%d" k) [ v "B0"; v "B1" ])
            [ Cq.Atom.make (Printf.sprintf "f%d" k) [ v "B0"; v "B1" ] ])
    in
    relevant @ noise
  in
  let table =
    T.create
      [ "query_len"; "views"; "mc_ms"; "mc_rw"; "mc_mcds"; "bk_ms"; "bk_rw";
        "bk_candidates" ]
  in
  List.iter
    (fun (len, distractors) ->
      let q = chain_query len in
      let vs = views len distractors in
      let mc_ms, (mc_rw, mc_stats) =
        time_ms (fun () -> Rewrite.Minicon.rewrite ~views:vs q)
      in
      let bk_ms, (bk_rw, bk_stats) =
        time_ms (fun () -> Reference.Bucket.rewrite ~max_candidates:50_000 ~views:vs q)
      in
      T.add_row table
        [ T.cell_i len; T.cell_i (List.length vs); T.cell_f mc_ms;
          T.cell_i (List.length mc_rw);
          T.cell_i mc_stats.Rewrite.Minicon.mcds_formed; T.cell_f bk_ms;
          T.cell_i (List.length bk_rw);
          T.cell_i bk_stats.Reference.Bucket.candidates_tried ])
    [ (2, 0); (4, 0); (6, 0); (8, 0); (10, 0); (6, 40); (10, 40) ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E4: LSD matching accuracy (claim C1: 70-90%) *)

(* Additional base domains so the claim is not university-specific. *)
module Sm = Corpus.Schema_model

let conference_schema =
  Sm.make ~name:"conference"
    [ Sm.relation "paper"
        [ Sm.attribute "title"; Sm.attribute "author"; Sm.attribute "year" ];
      Sm.relation "session"
        [ Sm.attribute "name"; Sm.attribute "room"; Sm.attribute "time";
          Sm.attribute "day" ];
      Sm.relation "attendee"
        [ Sm.attribute "name"; Sm.attribute "email"; Sm.attribute "phone" ] ]

let clinic_schema =
  Sm.make ~name:"clinic"
    [ Sm.relation "visit"
        [ Sm.attribute "code"; Sm.attribute "day"; Sm.attribute "time";
          Sm.attribute "room" ];
      Sm.relation "doctor"
        [ Sm.attribute "name"; Sm.attribute "phone"; Sm.attribute "office";
          Sm.attribute "email" ] ]

let bookshop_schema =
  Sm.make ~name:"bookshop"
    [ Sm.relation "title_entry"
        [ Sm.attribute "title"; Sm.attribute "author"; Sm.attribute "year";
          Sm.attribute "count" ];
      Sm.relation "contact"
        [ Sm.attribute "name"; Sm.attribute "email"; Sm.attribute "phone" ] ]

let lsd_domains =
  [ ("university", Workload.University.mediated_schema);
    ("conference", conference_schema); ("clinic", clinic_schema);
    ("bookshop", bookshop_schema) ]

let lsd_accuracy prng base ~level ~only =
  let train = 3 and trials = 4 in
  let examples =
    List.concat_map
      (fun i ->
        let variant =
          Workload.Perturb.perturb
            ~name:(Printf.sprintf "train%d" i)
            (Util.Prng.split prng) ~level base
        in
        let mapping =
          List.map
            (fun (b, p) -> (p, Workload.Perturb.label_of b))
            variant.Workload.Perturb.truth
        in
        Matching.Lsd.examples_of_schema ~mapping variant.Workload.Perturb.perturbed)
      (List.init train Fun.id)
  in
  let lsd = Matching.Lsd.train ~examples () in
  let scores =
    List.init trials (fun i ->
        let variant =
          Workload.Perturb.perturb
            ~name:(Printf.sprintf "test%d" i)
            (Util.Prng.split prng) ~level base
        in
        let truth = Workload.Perturb.truth_correspondences variant in
        let assignment =
          Matching.Lsd.match_schema ?only lsd variant.Workload.Perturb.perturbed
        in
        (Matching.Evaluate.score
           ~predicted:(Matching.Evaluate.of_assignment assignment)
           ~truth)
          .Matching.Evaluate.accuracy)
  in
  Util.Stats.mean scores

let e4 () =
  header "E4" "LSD multi-strategy matching accuracy (paper: 70-90%)";
  let table =
    T.create
      [ "domain"; "level"; "acc_meta"; "acc_name"; "acc_bayes"; "acc_struct" ]
  in
  List.iter
    (fun (domain, base) ->
      List.iter
        (fun level ->
          let prng = Util.Prng.create (Hashtbl.hash (domain, level)) in
          let acc only = lsd_accuracy (Util.Prng.copy prng) base ~level ~only in
          T.add_row table
            [ domain; T.cell_f level; T.cell_f (acc None);
              T.cell_f (acc (Some [ "name" ]));
              T.cell_f (acc (Some [ "naive-bayes" ]));
              T.cell_f (acc (Some [ "structure" ])) ])
        [ 0.3; 0.5; 0.75 ])
    lsd_domains;
  T.print table

(* ------------------------------------------------------------------ *)
(* E5: MatchingAdvisor (corpus) vs. direct lexical matching *)

let lexical_match s1 s2 =
  (* Baseline: greedy one-to-one on canonicalised name similarity. *)
  let cols1 = Matching.Column.of_schema s1 and cols2 = Matching.Column.of_schema s2 in
  let sim c1 c2 =
    Util.Strdist.jaccard (Matching.Column.name_tokens c1) (Matching.Column.name_tokens c2)
  in
  let pairs =
    List.concat_map (fun c1 -> List.map (fun c2 -> (c1, c2, sim c1 c2)) cols2) cols1
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  in
  let used1 = ref [] and used2 = ref [] in
  List.filter
    (fun (c1, c2, s) ->
      if s <= 0.0 || List.memq c1 !used1 || List.memq c2 !used2 then false
      else begin
        used1 := c1 :: !used1;
        used2 := c2 :: !used2;
        true
      end)
    pairs
  |> List.map (fun (c1, c2, _) -> (c1, c2))

let base_of truth key =
  List.find_map (fun (b, k) -> if k = key then Some b else None) truth

let pair_correct v1 v2 pairs =
  List.length
    (List.filter
       (fun (col1, col2) ->
         match
           ( base_of v1.Workload.Perturb.truth (Matching.Column.key col1),
             base_of v2.Workload.Perturb.truth (Matching.Column.key col2) )
         with
         | Some x, Some y -> x = y
         | _ -> false)
       pairs)

let pair_accuracy v1 v2 pairs =
  match List.length pairs with
  | 0 -> 0.0
  | n -> float_of_int (pair_correct v1 v2 pairs) /. float_of_int n

(* Base elements surviving in both variants: the matchable pairs. *)
let matchable v1 v2 =
  List.length
    (List.filter
       (fun (b, _) -> List.exists (fun (b', _) -> b = b') v2.Workload.Perturb.truth)
       v1.Workload.Perturb.truth)

let pair_recall v1 v2 pairs =
  match matchable v1 v2 with
  | 0 -> 0.0
  | m -> float_of_int (pair_correct v1 v2 pairs) /. float_of_int m

(* Vocabulary outside every synonym table: renamings a name matcher
   cannot undo, but whose data still gives the game away — the regime
   the corpus tools are for. *)
let exotic_synonyms =
  Util.Synonyms.of_groups
    [ [ "title"; "caption" ]; [ "instructor"; "presenter" ];
      [ "phone"; "extension" ]; [ "email"; "mailbox" ];
      [ "room"; "chamber" ]; [ "name"; "moniker" ]; [ "day"; "slot" ];
      [ "time"; "moment" ]; [ "enrollment"; "headcount" ];
      [ "code"; "tag" ]; [ "office"; "den" ]; [ "year"; "vintage" ];
      [ "speaker"; "orator" ]; [ "author"; "writer" ];
      [ "venue"; "locale" ]; [ "course"; "offering" ];
      [ "person"; "individual" ]; [ "ta"; "helper" ];
      [ "talk"; "address" ]; [ "publication"; "writeup" ] ]

let e5 () =
  header "E5" "MatchingAdvisor (corpus classifiers) vs. direct lexical matching";
  let table =
    T.create
      [ "corpus_size"; "corpus_prec"; "corpus_recall"; "lexical_prec";
        "lexical_recall" ]
  in
  let level = 0.4 in
  List.iter
    (fun size ->
      let prng = Util.Prng.create (100 + size) in
      let corpus =
        Workload.University.corpus_of_variants (Util.Prng.split prng) ~n:size ~level
      in
      let matcher = Matching.Corpus_matcher.build corpus in
      (* The two schemas to match use the exotic vocabulary. *)
      let v1 =
        Workload.Perturb.perturb ~name:"s1" ~synonyms:exotic_synonyms
          (Util.Prng.split prng) ~level Workload.University.mediated_schema
      in
      let v2 =
        Workload.Perturb.perturb ~name:"s2" ~synonyms:exotic_synonyms
          (Util.Prng.split prng) ~level Workload.University.mediated_schema
      in
      let corpus_pairs =
        Matching.Corpus_matcher.match_schemas matcher v1.Workload.Perturb.perturbed
          v2.Workload.Perturb.perturbed
        |> List.map (fun (a, b, _) -> (a, b))
      in
      let lex_pairs =
        lexical_match v1.Workload.Perturb.perturbed v2.Workload.Perturb.perturbed
      in
      T.add_row table
        [ T.cell_i size; T.cell_f (pair_accuracy v1 v2 corpus_pairs);
          T.cell_f (pair_recall v1 v2 corpus_pairs);
          T.cell_f (pair_accuracy v1 v2 lex_pairs);
          T.cell_f (pair_recall v1 v2 lex_pairs) ])
    [ 4; 8; 16; 32 ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E6: DesignAdvisor ranking quality (claim C6) *)

(* Decoys from genuinely foreign domains (no attribute overlap with the
   university vocabulary). *)
let far_decoys prng =
  let num n = Sm.attribute ~values:(Workload.Data_gen.values prng Workload.Data_gen.Count n) in
  let yr n = Sm.attribute ~values:(Workload.Data_gen.values prng Workload.Data_gen.Year n) in
  [ Sm.make ~name:"geology"
      [ Sm.relation "mineral" [ num 15 "hardness"; num 15 "density"; yr 15 "discovered" ];
        Sm.relation "stratum" [ num 15 "depth"; num 15 "porosity" ] ];
    Sm.make ~name:"finance"
      [ Sm.relation "position" [ num 15 "shares"; num 15 "basis"; yr 15 "acquired" ];
        Sm.relation "dividend" [ num 15 "payout"; num 15 "yield_bps" ] ];
    Sm.make ~name:"logistics"
      [ Sm.relation "shipment" [ num 15 "weight_kg"; num 15 "pallets"; num 15 "distance_km" ];
        Sm.relation "depot" [ num 15 "bays"; num 15 "forklifts" ] ] ]

let e6 () =
  header "E6" "DesignAdvisor ranking quality (partial schemas)";
  let table =
    T.create [ "seed_relations"; "top1_domain_acc"; "mean_completions"; "trials" ]
  in
  let trials = 6 in
  List.iter
    (fun k ->
      let hits = ref 0 and completions = ref [] in
      for trial = 1 to trials do
        let prng = Util.Prng.create ((k * 100) + trial) in
        let corpus =
          Workload.University.corpus_of_variants (Util.Prng.split prng) ~n:8
            ~level:0.3
        in
        List.iter
          (fun s ->
            Corpus.Corpus_store.add_schema corpus
              { s with Sm.schema_name = s.Sm.schema_name ^ string_of_int trial })
          (far_decoys (Util.Prng.split prng));
        let fresh =
          Workload.Perturb.perturb ~name:"partial" (Util.Prng.split prng)
            ~level:0.3 Workload.University.mediated_schema
        in
        let partial =
          {
            fresh.Workload.Perturb.perturbed with
            Sm.relations =
              List.filteri
                (fun i _ -> i < k)
                fresh.Workload.Perturb.perturbed.Sm.relations;
          }
        in
        let advisor = Advisor.Design_advisor.build corpus in
        match Advisor.Design_advisor.rank ~limit:1 advisor ~partial with
        | [ best ] ->
            let name = best.Advisor.Design_advisor.candidate.Sm.schema_name in
            if String.length name >= 4 && String.sub name 0 4 = "univ" then
              incr hits;
            completions :=
              float_of_int (List.length best.Advisor.Design_advisor.missing)
              :: !completions
        | _ -> ()
      done;
      T.add_row table
        [ T.cell_i k;
          T.cell_f (float_of_int !hits /. float_of_int trials);
          T.cell_f (Util.Stats.mean !completions); T.cell_i trials ])
    [ 1; 2; 3 ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E7: mapping effort & join cost, PDMS vs. mediated schema (claim C2) *)

let attr_canon_set (s : Sm.t) =
  Sm.attr_names s
  |> List.map (fun a ->
         Util.Tokenize.split_identifier a
         |> List.map (Util.Synonyms.canonical Util.Synonyms.university_domain)
         |> List.map Util.Stemmer.stem
         |> String.concat "_")

let schema_similarity a b =
  Util.Strdist.jaccard (attr_canon_set a) (attr_canon_set b)

let e7 () =
  header "E7"
    "join effort, PDMS (map to closest peer) vs. mediated (map to global schema)";
  let table =
    T.create
      [ "peers"; "pdms_mappings"; "mediated_mappings"; "pdms_join_cost";
        "mediated_join_cost"; "reachable" ]
  in
  List.iter
    (fun n ->
      let prng = Util.Prng.create (7000 + n) in
      (* Peers arrive one by one; each is a variant derived from a random
         EXISTING peer's schema (regional similarity, like Trento/Roma). *)
      let first =
        (Workload.Perturb.perturb ~name:"peer0" (Util.Prng.split prng) ~level:0.5
           Workload.University.mediated_schema)
          .Workload.Perturb.perturbed
      in
      let members = ref [ first ] in
      let pdms_costs = ref [] and mediated_costs = ref [] in
      for i = 1 to n - 1 do
        let parent = Util.Prng.pick prng !members in
        let joiner =
          (Workload.Perturb.perturb
             ~name:(Printf.sprintf "peer%d" i)
             (Util.Prng.split prng) ~level:0.2 parent)
            .Workload.Perturb.perturbed
        in
        (* PDMS: author one mapping to the most similar member. *)
        let best =
          List.fold_left
            (fun acc m -> Float.max acc (schema_similarity joiner m))
            0.0 !members
        in
        pdms_costs := (1.0 -. best) :: !pdms_costs;
        (* Mediated: author one mapping to the fixed global schema. *)
        mediated_costs :=
          (1.0 -. schema_similarity joiner Workload.University.mediated_schema)
          :: !mediated_costs;
        members := joiner :: !members
      done;
      T.add_row table
        [ T.cell_i n; T.cell_i (n - 1); T.cell_i n;
          T.cell_f (Util.Stats.mean !pdms_costs);
          T.cell_f (Util.Stats.mean !mediated_costs); "1.000" ])
    [ 4; 8; 16; 32; 64 ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E8: annotation repository vs. crawl-at-query-time (claim C4) *)

let e8 () =
  header "E8" "stored annotation repository vs. page access at query time";
  let table =
    T.create [ "pages"; "repo_ms"; "crawl_ms"; "speedup"; "courses" ]
  in
  List.iter
    (fun scale ->
      let prng = Util.Prng.create (800 + scale) in
      let pages =
        Workload.Pages.department prng ~host:"uw" ~people:scale
          ~course_pages:scale ~courses_per_page:4
      in
      (* Publish once into the repository. *)
      let repo = Mangrove.Repository.create () in
      List.iter
        (fun (p : Workload.Pages.annotated_page) ->
          let a =
            Mangrove.Annotator.start ~schema:Mangrove.Lightweight_schema.department
              p.Workload.Pages.doc
          in
          Workload.Pages.annotate a p.Workload.Pages.plan;
          ignore (Mangrove.Repository.publish repo a))
        pages;
      let repo_ms, rows = time_ms (fun () -> Mangrove.Apps.calendar repo) in
      (* Crawl baseline: touch every page at query time — re-walk each
         document, re-extract its annotations into a transient store,
         then answer. *)
      let crawl_ms, crawl_rows =
        time_ms (fun () ->
            let transient = Mangrove.Repository.create () in
            List.iter
              (fun (p : Workload.Pages.annotated_page) ->
                (* The crawl must at least read the page... *)
                ignore (Mangrove.Html.word_count p.Workload.Pages.doc);
                let a =
                  Mangrove.Annotator.start
                    ~schema:Mangrove.Lightweight_schema.department
                    p.Workload.Pages.doc
                in
                Workload.Pages.annotate a p.Workload.Pages.plan;
                ignore (Mangrove.Repository.publish transient a))
              pages;
            Mangrove.Apps.calendar transient)
      in
      assert (List.length rows = List.length crawl_rows);
      T.add_row table
        [ T.cell_i (List.length pages); T.cell_f repo_ms; T.cell_f crawl_ms;
          T.cell_f (crawl_ms /. Float.max 0.001 repo_ms);
          T.cell_i (List.length rows) ])
    [ 5; 15; 40 ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E9: updategram maintenance vs. recomputation (claim C5) *)

let e9 () =
  header "E9" "incremental updategram maintenance vs. view recomputation";
  let table =
    T.create
      [ "base_tuples"; "batch"; "incr_ms"; "recompute_ms"; "speedup"; "view_rows" ]
  in
  List.iter
    (fun (base_size, batch) ->
      let prng = Util.Prng.create (900 + base_size + batch) in
      let db = Relalg.Database.create () in
      let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
      let s = Relalg.Database.create_relation db "s" [ "b"; "c" ] in
      let domain = base_size / 2 in
      let add rel =
        ignore
          (Relalg.Relation.add_distinct rel
             [| Relalg.Value.Int (Util.Prng.int prng domain);
                Relalg.Value.Int (Util.Prng.int prng domain) |]
            : bool)
      in
      for _ = 1 to base_size do
        add r;
        add s
      done;
      let v = Cq.Term.v in
      let view =
        Cq.Query.make
          (Cq.Atom.make "vw" [ v "X"; v "Z" ])
          [ Cq.Atom.make "r" [ v "X"; v "Y" ]; Cq.Atom.make "s" [ v "Y"; v "Z" ] ]
      in
      let vm = Pdms.View_maintenance.create db view in
      let grams =
        List.init batch (fun _ ->
            Pdms.Updategram.make ~rel:(if Util.Prng.bool prng then "r" else "s")
              ~inserts:
                [ [| Relalg.Value.Int (Util.Prng.int prng domain);
                     Relalg.Value.Int (Util.Prng.int prng domain) |] ]
              ())
      in
      let incr_ms, () =
        time_ms (fun () -> List.iter (Pdms.View_maintenance.apply vm) grams)
      in
      let recompute_ms, () = time_ms (fun () -> Pdms.View_maintenance.refresh vm) in
      T.add_row table
        [ T.cell_i base_size; T.cell_i batch; T.cell_f incr_ms;
          T.cell_f recompute_ms;
          T.cell_f (recompute_ms /. Float.max 0.001 incr_ms);
          T.cell_i (Pdms.View_maintenance.cardinality vm) ])
    [ (1000, 1); (1000, 10); (4000, 1); (4000, 10); (4000, 50) ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E10: cooperative query caching under locality (Section 3.1.2) *)

let e10 () =
  header "E10" "query-result caching under Zipf query locality and updates";
  let table =
    T.create
      [ "update_prob"; "queries"; "hit_rate"; "cached_ms"; "uncached_ms";
        "invalidations" ]
  in
  List.iter
    (fun update_prob ->
      let prng = Util.Prng.create 1000 in
      let topology = Pdms.Topology.generate Pdms.Topology.Chain ~n:8 in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer:6 ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let cache = Pdms.Cache.create catalog () in
      (* Query templates: per peer, the course query plus a projection. *)
      let templates =
        List.concat_map
          (fun at ->
            let base = Workload.Peers_gen.course_query g ~at in
            let projected =
              Cq.Query.make
                (Cq.Atom.make "ans" [ Cq.Term.v "Qtitle" ])
                base.Cq.Query.body
            in
            [ base; projected ])
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        |> Array.of_list
      in
      let total_queries = 150 in
      let invalidations = ref 0 in
      let touch_random_peer () =
        let peer = g.Workload.Peers_gen.peers.(Util.Prng.int prng 8) in
        let pred = Pdms.Peer.stored_pred peer "course" in
        let u =
          Pdms.Updategram.make ~rel:pred
            ~inserts:
              [ [| Relalg.Value.Str (Workload.Vocab.course_code prng);
                   Relalg.Value.Str (Workload.Vocab.course_title prng);
                   Relalg.Value.Str (Workload.Vocab.person_name prng) |] ]
            ()
        in
        Pdms.Updategram.apply (Pdms.Catalog.global_db catalog) u;
        invalidations := !invalidations + Pdms.Cache.invalidate cache u
      in
      let cached_ms, () =
        time_ms (fun () ->
            for _ = 1 to total_queries do
              if Util.Prng.bernoulli prng update_prob then touch_random_peer ();
              (* Zipf-skewed template choice: locality. *)
              let rank = Util.Prng.zipf prng ~n:(Array.length templates) ~s:1.2 in
              ignore (Pdms.Cache.answer cache templates.(rank - 1))
            done)
      in
      (* Uncached baseline over an equally skewed stream. *)
      let prng2 = Util.Prng.create 2000 in
      let uncached_ms, () =
        time_ms (fun () ->
            for _ = 1 to total_queries do
              let rank = Util.Prng.zipf prng2 ~n:(Array.length templates) ~s:1.2 in
              ignore (Pdms.Answer.answer catalog templates.(rank - 1))
            done)
      in
      let hit_rate =
        float_of_int (Pdms.Cache.hits cache)
        /. float_of_int (Pdms.Cache.hits cache + Pdms.Cache.misses cache)
      in
      T.add_row table
        [ T.cell_f update_prob; T.cell_i total_queries; T.cell_f hit_rate;
          T.cell_f cached_ms; T.cell_f uncached_ms; T.cell_i !invalidations ])
    [ 0.0; 0.1; 0.3 ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E11: peer-based execution vs. ship-everything-central (Section 3.1.2) *)

let e11 () =
  header "E11" "distributed execution at data sites vs. central shipping";
  let table =
    T.create
      [ "topology"; "peers"; "distributed_ms"; "central_ms"; "ratio"; "answers" ]
  in
  List.iter
    (fun (kind, n) ->
      let prng = Util.Prng.create (1100 + n) in
      let topology = Pdms.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer:60 ()
      in
      let names = List.init n (Printf.sprintf "p%d") in
      let network =
        Pdms.Network.of_topology topology ~names ~base_latency_ms:15.0
      in
      (* A selective query: one stored code, so results are small while
         inputs are large — the regime where executing at the data wins. *)
      let some_code =
        let peer = g.Workload.Peers_gen.peers.(n - 1) in
        let stored =
          Relalg.Database.find (Pdms.Peer.stored_db peer)
            (Pdms.Peer.stored_pred peer "course")
        in
        match Relalg.Relation.tuples stored with
        | row :: _ -> row.(0)
        | [] -> Relalg.Value.Str "none"
      in
      let query =
        Cq.Query.make
          (Cq.Atom.make "ans" [ Cq.Term.v "T" ])
          [ Pdms.Peer.atom g.Workload.Peers_gen.peers.(0) "course"
              [ Cq.Term.Const some_code; Cq.Term.v "T"; Cq.Term.v "I" ] ]
      in
      let plan =
        Pdms.Distributed.execute g.Workload.Peers_gen.catalog network ~at:"p0"
          query
      in
      T.add_row table
        [ Pdms.Topology.kind_name kind; T.cell_i n;
          T.cell_f plan.Pdms.Distributed.distributed_ms;
          T.cell_f plan.Pdms.Distributed.central_ms;
          T.cell_f
            (plan.Pdms.Distributed.central_ms
            /. Float.max 0.001 plan.Pdms.Distributed.distributed_ms);
          T.cell_i (Relalg.Relation.cardinality plan.Pdms.Distributed.answers) ])
    [ (Pdms.Topology.Chain, 4); (Pdms.Topology.Chain, 8);
      (Pdms.Topology.Chain, 16); (Pdms.Topology.Star, 8);
      (Pdms.Topology.Star, 16) ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E12: cost-based materialised-view placement (Section 3.1.2) *)

let e12 () =
  header "E12" "greedy view placement vs. single authoritative copy";
  let table =
    T.create
      [ "topology"; "peers"; "hotspots"; "cost_initial"; "cost_placed";
        "replicas"; "improvement" ]
  in
  List.iter
    (fun (kind, n, hotspots) ->
      let prng = Util.Prng.create (1200 + n + hotspots) in
      let topology = Pdms.Topology.generate ~prng kind ~n in
      let names = List.init n (Printf.sprintf "p%d") in
      let network =
        Pdms.Network.of_topology topology ~names ~base_latency_ms:25.0
      in
      (* Hotspot peers issue most of the queries. *)
      let query_freq =
        List.mapi
          (fun i name -> (name, if i < hotspots then 30.0 else 1.0))
          names
      in
      let workloads =
        [ {
            Pdms.Placement.view_name = "calendar";
            query_freq;
            update_rate = 1.0;
            result_size = 2048;
          };
          {
            Pdms.Placement.view_name = "whoswho";
            query_freq = List.rev query_freq;
            update_rate = 0.2;
            result_size = 1024;
          } ]
      in
      let initial = [ ("calendar", [ "p0" ]); ("whoswho", [ "p0" ]) ] in
      let before = Pdms.Placement.cost network workloads initial in
      let placed =
        Pdms.Placement.greedy network workloads ~initial ~max_replicas:4
      in
      let after = Pdms.Placement.cost network workloads placed in
      let replicas =
        List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 placed
      in
      T.add_row table
        [ Pdms.Topology.kind_name kind; T.cell_i n; T.cell_i hotspots;
          T.cell_f before; T.cell_f after; T.cell_i replicas;
          T.cell_f (before /. Float.max 0.001 after) ])
    [ (Pdms.Topology.Chain, 6, 1); (Pdms.Topology.Chain, 12, 2);
      (Pdms.Topology.Chain, 16, 3); (Pdms.Topology.Star, 8, 2);
      (Pdms.Topology.Star, 16, 3) ];
  T.print table

(* ------------------------------------------------------------------ *)
(* E13: rewriting-union scaling — the union of rewritings (the PDMS
   answer path's hot loop) on the engine against the seed's list-backed
   dedup *)

(* The seed's union evaluation for reference: one shared answer list,
   membership by linear scan (what [Relation.insert_distinct] did before
   the hash-set membership structure). *)
let list_backed_union db qs =
  let head_tuple (q : Cq.Query.t) b =
    Array.of_list
      (List.map
         (function
           | Cq.Term.Const v -> v
           | Cq.Term.Var x -> Cq.Eval.Smap.find x b)
         q.Cq.Query.head.Cq.Atom.args)
  in
  let seen = ref [] in
  let count = ref 0 in
  List.iter
    (fun q ->
      List.iter
        (fun b ->
          let row = head_tuple q b in
          if not (List.exists (fun r -> r = row) !seen) then begin
            seen := row :: !seen;
            incr count
          end)
        (Cq.Eval.run_bindings db q))
    qs;
  !count

let e13_configs configs () =
  header "E13"
    "rewriting-union scaling: union evaluation against list-backed dedup";
  let table =
    T.create
      [ "peers"; "tuples"; "rewritings"; "time_ms"; "vs_list"; "ktuples_s" ]
  in
  List.iter
    (fun (n, tuples_per_peer) ->
      let prng = Util.Prng.create (1300 + n + tuples_per_peer) in
      let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 1) ~n in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer ~with_join:true ()
      in
      let query = Workload.Peers_gen.join_query g ~at:0 in
      let outcome =
        Pdms.Reformulate.reformulate g.Workload.Peers_gen.catalog query
      in
      let rewritings = outcome.Pdms.Reformulate.rewritings in
      (* One snapshot shared by both modes. Each mode runs once untimed
         first, so neither timing pays for building the column indexes
         and statistics it reads. *)
      let catalog = g.Workload.Peers_gen.catalog in
      let db = Relalg.Database.copy (Pdms.Catalog.global_db catalog) in
      ignore (list_backed_union db rewritings : int);
      let list_ms, list_count =
        wall_ms (fun () -> list_backed_union db rewritings)
      in
      Printf.printf
        "BENCH_e13_baseline {\"peers\":%d,\"tuples_per_peer\":%d,\
         \"rewritings\":%d,\"list_backed_ms\":%.2f,\"answers\":%d}\n"
        n tuples_per_peer (List.length rewritings) list_ms list_count;
      let union () = Pdms.Answer.eval_union db rewritings in
      ignore (union () : Relalg.Relation.t);
      let ms, answers = wall_ms union in
      let vs_list = list_ms /. Float.max 0.001 ms in
      let produced = Relalg.Relation.cardinality answers in
      assert (produced = list_count);
      let ktuples_s = float_of_int produced /. Float.max 0.001 ms in
      T.add_row table
        [ T.cell_i n; T.cell_i tuples_per_peer;
          T.cell_i (List.length rewritings); T.cell_f ms; T.cell_f vs_list;
          T.cell_f ktuples_s ];
      Printf.printf
        "BENCH_e13 {\"peers\":%d,\"tuples_per_peer\":%d,\"rewritings\":%d,\
         \"time_ms\":%.2f,\"speedup_vs_list_backed\":%.2f,\"answers\":%d}\n"
        n tuples_per_peer (List.length rewritings) ms vs_list produced)
    configs;
  T.print table

let e13 () = e13_configs [ (8, 200); (12, 400); (16, 600) ] ()

(* ------------------------------------------------------------------ *)
(* E14: reformulation throughput — the subsumption sweep (signature
   prefilter) against the seed's unprefiltered O(n²) sweep, on dense
   Fig. 2-style topologies; plus the answer-cache hit-latency
   micro-bench against the seed's list-scan store. *)

(* The seed's containment test (no signature prefilter), reconstructed
   from the primitives: freeze the head, seed the substitution
   head-onto-head, search for a homomorphism. *)
let unprefiltered_contained_in (q1 : Cq.Query.t) (q2 : Cq.Query.t) =
  let frozen_head = Cq.Homomorphism.freeze_atom q1.Cq.Query.head in
  match Cq.Subst.match_atom Cq.Subst.empty q2.Cq.Query.head frozen_head with
  | None -> false
  | Some init ->
      Cq.Homomorphism.exists ~init ~from:q2.Cq.Query.body q1.Cq.Query.body

(* The seed's final sweep verbatim: every ordered pair pays the full
   homomorphism search. *)
let seed_sweep rewritings =
  let arr = Array.of_list rewritings in
  let n = Array.length arr in
  let keep = Array.make n true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        i <> j && keep.(i) && keep.(j)
        && unprefiltered_contained_in arr.(i) arr.(j)
      then
        if unprefiltered_contained_in arr.(j) arr.(i) then (
          if j > i then keep.(j) <- false else keep.(i) <- false)
        else keep.(i) <- false
    done
  done;
  List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)

let e14_sweep_configs configs =
  let table =
    T.create [ "peers"; "raw_rw"; "kept"; "sweep_ms"; "seed_ms"; "vs_seed" ]
  in
  List.iter
    (fun (n, cap) ->
      let prng = Util.Prng.create (1400 + n) in
      let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 2) ~n in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer:2 ()
      in
      let query = Workload.Peers_gen.course_query g ~at:0 in
      (* Raw emissions: subsumption off, so the sweep input is the dense
         duplicated set a search emits before its sweep. *)
      let pruning =
        {
          Pdms.Exec.default_pruning with
          Pdms.Exec.use_subsumption = false;
          max_rewritings = cap;
        }
      in
      let outcome =
        Pdms.Reformulate.reformulate ~exec:(Pdms.Exec.with_pruning pruning)
          g.Workload.Peers_gen.catalog
          query
      in
      let raw = outcome.Pdms.Reformulate.rewritings in
      let raw_n = List.length raw in
      let seed_ms, seed_kept = wall_ms (fun () -> seed_sweep raw) in
      Printf.printf
        "BENCH_e14_seed_sweep {\"peers\":%d,\"raw_rewritings\":%d,\
         \"kept\":%d,\"seed_ms\":%.2f}\n"
        n raw_n (List.length seed_kept) seed_ms;
      let ms, kept =
        wall_ms (fun () -> Pdms.Reformulate.subsumption_sweep raw)
      in
      (* The prefiltered sweep must keep exactly what the seed's sweep
         keeps. *)
      let render = List.map Cq.Query.to_string in
      assert (render kept = render seed_kept);
      let vs_seed = seed_ms /. Float.max 0.001 ms in
      T.add_row table
        [ T.cell_i n; T.cell_i raw_n; T.cell_i (List.length kept); T.cell_f ms;
          T.cell_f seed_ms; T.cell_f vs_seed ];
      Printf.printf
        "BENCH_e14_sweep {\"peers\":%d,\"raw_rewritings\":%d,\
         \"kept\":%d,\"sweep_ms\":%.2f,\"speedup_vs_seed\":%.2f}\n"
        n raw_n (List.length kept) ms vs_seed)
    configs;
  T.print table

(* Cache micro-bench: hit latency must be flat in the entry count
   (hashtable + intrusive LRU) where the seed's list store scanned
   linearly. The list-scan baseline replays the same lookups over an
   assoc list of the same keys. *)
let e14_cache_micro entry_counts =
  let lookups = 20_000 in
  let catalog = Pdms.Catalog.create () in
  let peer =
    Pdms.Peer.create ~name:"cachepeer"
      ~schema:[ ("course", [ "code"; "title" ]) ]
  in
  Pdms.Catalog.add_peer catalog peer;
  let stored = Pdms.Catalog.store_identity catalog peer ~rel:"course" in
  Relalg.Relation.apply stored
    (Relalg.Relation.Delta.add
       [| Relalg.Value.Str "cse444"; Relalg.Value.Str "databases" |]);
  let mk i =
    Cq.Query.make
      (Cq.Atom.make (Printf.sprintf "q%d" i) [ Cq.Term.v "X"; Cq.Term.v "Y" ])
      [ Pdms.Peer.atom peer "course" [ Cq.Term.v "X"; Cq.Term.v "Y" ] ]
  in
  let table =
    T.create [ "entries"; "ns_per_hit"; "list_ns_per_hit"; "list_vs_cache" ]
  in
  List.iter
    (fun m ->
      let cache = Pdms.Cache.create ~capacity:1024 catalog () in
      let queries = Array.init m mk in
      Array.iter (fun q -> ignore (Pdms.Cache.answer cache q)) queries;
      assert (Pdms.Cache.entries cache = m);
      let hits0 = Pdms.Cache.hits cache in
      let prng = Util.Prng.create (1450 + m) in
      let picks = Array.init lookups (fun _ -> Util.Prng.int prng m) in
      let ms, () =
        wall_ms (fun () ->
            Array.iter
              (fun i -> ignore (Pdms.Cache.answer cache queries.(i)))
              picks)
      in
      (* Every lookup must have been a hit — no hidden evictions. *)
      assert (Pdms.Cache.hits cache = hits0 + lookups);
      (* The seed's store: an assoc list probed by key equality, the
         entry's position depending on recency. We scan a static list of
         the same rendered keys — flattering to the seed, which also
         paid a timestamped LRU fold per miss. *)
      let keys = Array.to_list (Array.map Cq.Query.to_string queries) in
      let list_ms, () =
        wall_ms (fun () ->
            Array.iter
              (fun i ->
                let key = Cq.Query.to_string queries.(i) in
                ignore (List.find_opt (fun k -> String.equal k key) keys))
              picks)
      in
      let ns_per_hit = ms *. 1e6 /. float_of_int lookups in
      let list_ns = list_ms *. 1e6 /. float_of_int lookups in
      T.add_row table
        [ T.cell_i m; T.cell_f ns_per_hit; T.cell_f list_ns;
          T.cell_f (list_ns /. Float.max 0.001 ns_per_hit) ];
      Printf.printf
        "BENCH_e14_cache {\"entries\":%d,\"ns_per_hit\":%.0f,\
         \"list_scan_ns_per_hit\":%.0f}\n"
        m ns_per_hit list_ns)
    entry_counts;
  T.print table

let e14_configs ~sweep ~cache_entries () =
  header "E14"
    "reformulation throughput: subsumption sweep vs seed + cache hit latency";
  e14_sweep_configs sweep;
  e14_cache_micro cache_entries

let e14 () =
  e14_configs
    ~sweep:[ (16, 192); (32, 256); (48, 256) ]
    ~cache_entries:[ 64; 256; 1024 ] ()

(* ------------------------------------------------------------------ *)
(* E15: instrumentation overhead. The Obs layer is designed to stay on
   permanently, so the null-sink configuration (tracing disabled,
   metrics enabled — Exec.default) must be indistinguishable from a
   fully disabled build. We measure the E14 subsumption-sweep workload
   in three modes and assert the null-sink overhead against a budget:
   <2% in the full run (the tentpole's acceptance bar; the sweep is the
   tightest loop the instrumentation touches). The smoke configuration
   uses a smaller sweep where fixed costs loom larger, so its assertion
   bar is looser — it guards against regressions that make
   instrumentation grossly expensive, not against single-percent
   drift. *)

let e15_sweep_input ~peers ~cap =
  let prng = Util.Prng.create (1400 + peers) in
  let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 2) ~n:peers in
  let g =
    Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
      ~tuples_per_peer:2 ()
  in
  let query = Workload.Peers_gen.course_query g ~at:0 in
  let pruning =
    {
      Pdms.Exec.default_pruning with
      Pdms.Exec.use_subsumption = false;
      max_rewritings = cap;
    }
  in
  (Pdms.Reformulate.reformulate ~exec:(Pdms.Exec.with_pruning pruning)
     g.Workload.Peers_gen.catalog query)
    .Pdms.Reformulate.rewritings

let e15_configs ~peers ~cap ~threshold_pct () =
  header "E15"
    "instrumentation overhead: Obs null sink vs disabled on the E14 sweep";
  let raw = e15_sweep_input ~peers ~cap in
  let raw_n = List.length raw in
  let sweep exec = Pdms.Reformulate.subsumption_sweep ~exec raw in
  (* Calibrate the iteration count so each measurement runs long enough
     for the wall clock (~60ms), then take the best of [repeats] runs to
     shed scheduler noise. *)
  let once_ms, reference = wall_ms (fun () -> sweep Pdms.Exec.default) in
  let iters = max 1 (min 5_000 (int_of_float (60.0 /. Float.max 0.01 once_ms))) in
  let repeats = 5 in
  let best exec =
    let ms = ref infinity in
    for _ = 1 to repeats do
      let m, () =
        wall_ms (fun () ->
            for _ = 1 to iters do
              ignore (sweep exec : Cq.Query.t list)
            done)
      in
      if m < !ms then ms := m
    done;
    !ms /. float_of_int iters
  in
  let memory_exec () =
    Pdms.Exec.make ~trace:(Obs.Trace.create (Obs.Sink.memory ())) ()
  in
  (* Mode 1: everything off — the global switch turns every counter
     into a no-op and the null tracer records nothing, approximating an
     uninstrumented build. *)
  Obs.Metrics.set_enabled false;
  let base_ms, disabled =
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled true)
      (fun () -> (best Pdms.Exec.default, sweep Pdms.Exec.default))
  in
  (* Mode 2: the permanent default — metrics counted, tracing nulled. *)
  let null_ms = best Pdms.Exec.default in
  (* Mode 3: full tracing into a memory sink (what `--trace` pays). *)
  let traced_ms = best (memory_exec ()) in
  (* Instrumentation must not change the result. *)
  let render qs = List.map Cq.Query.to_string qs in
  assert (render disabled = render reference);
  assert (render (sweep (memory_exec ())) = render reference);
  let pct ms = (ms -. base_ms) /. Float.max 1e-9 base_ms *. 100.0 in
  let table = T.create [ "mode"; "sweep_ms"; "overhead_pct" ] in
  T.add_row table [ "disabled"; T.cell_f base_ms; T.cell_f 0.0 ];
  T.add_row table [ "null-sink"; T.cell_f null_ms; T.cell_f (pct null_ms) ];
  T.add_row table
    [ "memory-sink"; T.cell_f traced_ms; T.cell_f (pct traced_ms) ];
  T.print table;
  Printf.printf
    "BENCH_e15_overhead {\"peers\":%d,\"raw_rewritings\":%d,\"iters\":%d,\
     \"disabled_ms\":%.4f,\"null_sink_ms\":%.4f,\"memory_sink_ms\":%.4f,\
     \"null_overhead_pct\":%.2f,\"budget_pct\":%.1f}\n"
    peers raw_n iters base_ms null_ms traced_ms (pct null_ms) threshold_pct;
  if pct null_ms >= threshold_pct then (
    Printf.printf
      "E15 FAILED: null-sink overhead %.2f%% exceeds the %.1f%% budget\n"
      (pct null_ms) threshold_pct;
    exit 1)

let e15 () = e15_configs ~peers:48 ~cap:256 ~threshold_pct:2.0 ()

(* ------------------------------------------------------------------ *)
(* E16: completeness/latency under peer failures. Distributed execution
   on the E14 topology (Mesh 2) with an increasing fraction of peers
   failed: how much of the answer survives, and what the retry layer
   spends finding out. The zero-fault configuration is asserted complete
   from every peer — a CI guard against silent degradation. *)

let e16_configs ~peers ~tuples_per_peer ~rates () =
  header "E16"
    "answer completeness and retry cost under peer failures (Mesh 2)";
  let n = peers in
  let prng = Util.Prng.create (1600 + n) in
  let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 2) ~n in
  let g =
    Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
      ~tuples_per_peer ()
  in
  let catalog = g.Workload.Peers_gen.catalog in
  let names = List.init n (Printf.sprintf "p%d") in
  let network =
    Pdms.Network.of_topology topology ~names ~base_latency_ms:15.0
  in
  let query = Workload.Peers_gen.course_query g ~at:0 in
  let full_answers =
    Relalg.Relation.cardinality (Pdms.Answer.answer catalog query).Pdms.Answer.answers
  in
  (* Zero-fault guard: every peer's seed query must come back complete. *)
  List.iteri
    (fun i _ ->
      let p =
        Pdms.Distributed.execute catalog network
          ~at:(Printf.sprintf "p%d" i)
          (Workload.Peers_gen.course_query g ~at:i)
      in
      if not p.Pdms.Distributed.report.Pdms.Distributed.complete then (
        Printf.printf
          "E16 FAILED: zero-fault query at p%d reported incomplete\n" i;
        exit 1))
    names;
  let table =
    T.create
      [ "fail_rate"; "peers_down"; "complete"; "answers"; "full"; "dropped";
        "retries"; "backoff_ms"; "distributed_ms"; "wall_ms" ]
  in
  List.iter
    (fun rate ->
      Pdms.Network.Fault.heal network;
      let fprng = Util.Prng.create (1660 + int_of_float (rate *. 100.0)) in
      let downed =
        List.filter
          (fun p ->
            (not (String.equal p "p0")) && Util.Prng.bernoulli fprng rate)
          names
      in
      List.iter (Pdms.Network.Fault.fail_peer network) downed;
      let ms, plan =
        wall_ms (fun () ->
            Pdms.Distributed.execute catalog network ~at:"p0" query)
      in
      let r = plan.Pdms.Distributed.report in
      let answers =
        Relalg.Relation.cardinality plan.Pdms.Distributed.answers
      in
      T.add_row table
        [ T.cell_f rate; T.cell_i (List.length downed);
          string_of_bool r.Pdms.Distributed.complete; T.cell_i answers;
          T.cell_i full_answers;
          T.cell_i r.Pdms.Distributed.rewritings_dropped;
          T.cell_i r.Pdms.Distributed.retries;
          T.cell_f r.Pdms.Distributed.backoff_ms;
          T.cell_f plan.Pdms.Distributed.distributed_ms; T.cell_f ms ];
      Printf.printf
        "BENCH_e16 {\"peers\":%d,\"fail_rate\":%.2f,\"peers_down\":%d,\
         \"complete\":%b,\"answers\":%d,\"full_answers\":%d,\
         \"rewritings_dropped\":%d,\"retries\":%d,\"backoff_ms\":%.1f,\
         \"distributed_ms\":%.1f,\"wall_ms\":%.2f}\n"
        n rate (List.length downed) r.Pdms.Distributed.complete answers
        full_answers r.Pdms.Distributed.rewritings_dropped
        r.Pdms.Distributed.retries r.Pdms.Distributed.backoff_ms
        plan.Pdms.Distributed.distributed_ms ms)
    rates;
  Pdms.Network.Fault.heal network;
  T.print table

let e16 () =
  e16_configs ~peers:12 ~tuples_per_peer:6 ~rates:[ 0.0; 0.1; 0.25; 0.5 ] ()

(* ------------------------------------------------------------------ *)
(* E17: shared-prefix batch evaluation — the Cq.Plan trie against
   per-rewriting union evaluation (Reference.per_rewriting_union, from
   test/reference), on the Fig. 2 topology sweep. The
   three-atom chain query unfolds to one rewriting per peer triple, so
   sibling rewritings that differ only in their last atom share the
   whole two-atom course-instr join as a trie prefix, and the trie
   computes each shared join once. Guards: answers byte-identical to
   the per-rewriting path at every point, bindings actually reused, and
   a minimum speedup at the config's guard point (exit 1 otherwise). *)

let e17_rows rel =
  Relalg.Relation.tuples rel
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let e17_configs ~repeats configs () =
  header "E17"
    "shared-prefix batch evaluation: Cq.Plan trie vs per-rewriting union";
  let table =
    T.create
      [ "topology"; "peers"; "rewritings"; "trie_nodes"; "shared"; "answers";
        "nobatch_ms"; "batch_ms"; "speedup"; "reused" ]
  in
  List.iter
    (fun (topo_name, kind, n, tuples_per_peer, min_speedup) ->
      let prng = Util.Prng.create (1700 + n + tuples_per_peer) in
      let topology = Pdms.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer ~with_join:true ()
      in
      let query = Workload.Peers_gen.chain_query g ~at:0 in
      let outcome =
        Pdms.Reformulate.reformulate g.Workload.Peers_gen.catalog query
      in
      let rewritings = outcome.Pdms.Reformulate.rewritings in
      (* One snapshot shared by both modes. Each mode runs once untimed
         first, so no timed run pays for building the column indexes and
         statistics it reads. *)
      let catalog = g.Workload.Peers_gen.catalog in
      let db = Relalg.Database.copy (Pdms.Catalog.global_db catalog) in
      let best f =
        let rec go best_ms last = function
          | 0 -> (best_ms, Option.get last)
          | k ->
              let ms, result = wall_ms f in
              go (Float.min best_ms ms) (Some result) (k - 1)
        in
        go infinity None (max 1 repeats)
      in
      let nobatch () = Reference.per_rewriting_union db rewritings in
      let batch () = Pdms.Answer.eval_union db rewritings in
      ignore (nobatch () : Relalg.Relation.t);
      let nobatch_ms, nobatch_out = best nobatch in
      ignore (batch () : Relalg.Relation.t);
      let before = Obs.Metrics.snapshot () in
      let batch_ms, batch_out = best batch in
      let after = Obs.Metrics.snapshot () in
      let delta name =
        (Obs.Metrics.counter_value after name
        - Obs.Metrics.counter_value before name)
        / max 1 repeats
      in
      let nodes = delta "cq.plan.nodes" in
      let shared = delta "cq.plan.shared_prefix_atoms" in
      let reused = delta "cq.plan.bindings_reused" in
      if e17_rows batch_out <> e17_rows nobatch_out then begin
        Printf.printf
          "E17 FAILED: batch answers differ from per-rewriting at %s n=%d\n"
          topo_name n;
        exit 1
      end;
      if reused <= 0 then begin
        Printf.printf
          "E17 FAILED: cq.plan.bindings_reused = %d at %s n=%d (no sharing?)\n"
          reused topo_name n;
        exit 1
      end;
      let speedup = nobatch_ms /. Float.max 0.001 batch_ms in
      let answers = Relalg.Relation.cardinality batch_out in
      T.add_row table
        [ topo_name; T.cell_i n; T.cell_i (List.length rewritings);
          T.cell_i nodes; T.cell_i shared; T.cell_i answers;
          T.cell_f nobatch_ms; T.cell_f batch_ms; T.cell_f speedup;
          T.cell_i reused ];
      Printf.printf
        "BENCH_e17 {\"topology\":\"%s\",\"peers\":%d,\"tuples_per_peer\":%d,\
         \"rewritings\":%d,\"trie_nodes\":%d,\"shared_prefix_atoms\":%d,\
         \"bindings_reused\":%d,\"answers\":%d,\"nobatch_ms\":%.2f,\
         \"batch_ms\":%.2f,\"speedup\":%.2f}\n"
        topo_name n tuples_per_peer (List.length rewritings) nodes shared
        reused answers nobatch_ms batch_ms speedup;
      match min_speedup with
      | Some floor when speedup < floor ->
          Printf.printf
            "E17 FAILED: speedup %.2fx below the %.1fx floor at %s n=%d\n"
            speedup floor topo_name n;
          exit 1
      | Some _ | None -> ())
    configs;
  T.print table

let e17 () =
  e17_configs ~repeats:5
    [ ("chain", Pdms.Topology.Chain, 16, 48, None);
      ("chain", Pdms.Topology.Chain, 32, 48, None);
      ("tree", Pdms.Topology.Binary_tree, 16, 48, None);
      ("tree", Pdms.Topology.Binary_tree, 48, 48, None);
      ("mesh2", Pdms.Topology.Mesh 2, 16, 48, None);
      ("mesh2", Pdms.Topology.Mesh 2, 32, 48, None);
      (* The acceptance point: high-sharing 48-peer Mesh-2 union. *)
      ("mesh2", Pdms.Topology.Mesh 2, 48, 48, Some 2.0) ]
    ()

(* E18: inverted-index keyword search — Kwindex vs brute force
   (Reference.keyword_search, from test/reference) over generated peer
   workloads. Repeated (warm) searches are
   the regime the index targets: index entries, the merged df corpus,
   and per-tuple norms are all version-guarded caches, so a warm query
   touches only its tokens' postings, while the brute path rebuilds the
   corpus and re-vectorizes every tuple per call. Guards: hit lists
   byte-identical (scores, order, tie-breaks) between the two paths, and
   a minimum warm speedup at the config's guard point (exit 1
   otherwise). *)

let e18_hits hits =
  List.map
    (fun (h : Pdms.Keyword.hit) ->
      ( h.Pdms.Keyword.peer,
        h.Pdms.Keyword.stored_rel,
        Array.map Relalg.Value.to_string h.Pdms.Keyword.tuple,
        Int64.bits_of_float h.Pdms.Keyword.score ))
    hits

let e18_configs ~repeats ~queries:nq configs () =
  header "E18"
    "inverted-index keyword search: Kwindex vs brute force (warm repeated \
     queries)";
  let table =
    T.create
      [ "peers"; "tuples"; "docs"; "queries"; "candidates"; "skipped";
        "brute_ms"; "indexed_ms"; "speedup" ]
  in
  List.iter
    (fun (n, tuples_per_peer, min_speedup) ->
      let prng = Util.Prng.create (1800 + n + tuples_per_peer) in
      let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 1) ~n in
      let g =
        Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
          ~tuples_per_peer ~with_join:true ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let queries =
        Workload.Peers_gen.keyword_queries g (Util.Prng.split prng) ~n:nq
      in
      let docs = n * tuples_per_peer * 2 in
      (* Byte-identity guard: every query, both paths (this also warms
         the version-guarded caches for the timing). *)
      List.iter
        (fun query ->
          if
            e18_hits (Pdms.Keyword.search catalog query)
            <> e18_hits (Reference.keyword_search catalog query)
          then begin
            Printf.printf "E18 FAILED: hit lists differ (peers=%d, query=%S)\n"
              n query;
            exit 1
          end)
        queries;
      let run search =
        List.iter (fun query -> ignore (search query)) queries
      in
      let best f =
        let rec go best_ms = function
          | 0 -> best_ms
          | k ->
              let ms, () = wall_ms f in
              go (Float.min best_ms ms) (k - 1)
        in
        go infinity (max 1 repeats)
      in
      let brute_ms =
        best (fun () -> run (Reference.keyword_search catalog))
      in
      let before = Obs.Metrics.snapshot () in
      let indexed_ms = best (fun () -> run (Pdms.Keyword.search catalog)) in
      let after = Obs.Metrics.snapshot () in
      (* Per query-batch repeat. *)
      let delta name =
        (Obs.Metrics.counter_value after name
        - Obs.Metrics.counter_value before name)
        / max 1 repeats
      in
      let candidates = delta "pdms.kwindex.candidates" in
      let skipped = delta "pdms.kwindex.skipped_by_bound" in
      let rebuilt = delta "pdms.kwindex.builds" in
      if rebuilt > 0 then begin
        Printf.printf
          "E18 FAILED: %d index rebuilds during warm queries (peers=%d)\n"
          rebuilt n;
        exit 1
      end;
      let speedup = brute_ms /. Float.max 0.001 indexed_ms in
      T.add_row table
        [ T.cell_i n; T.cell_i tuples_per_peer; T.cell_i docs; T.cell_i nq;
          T.cell_i candidates; T.cell_i skipped; T.cell_f brute_ms;
          T.cell_f indexed_ms; T.cell_f speedup ];
      Printf.printf
        "BENCH_e18 {\"peers\":%d,\"tuples_per_peer\":%d,\"docs\":%d,\
         \"queries\":%d,\"candidates\":%d,\"skipped_by_bound\":%d,\
         \"brute_ms\":%.2f,\"indexed_ms\":%.2f,\"speedup\":%.2f}\n"
        n tuples_per_peer docs nq candidates skipped brute_ms indexed_ms
        speedup;
      match min_speedup with
      | Some floor when speedup < floor ->
          Printf.printf
            "E18 FAILED: warm speedup %.2fx below the %.1fx floor at \
             peers=%d\n"
            speedup floor n;
          exit 1
      | Some _ | None -> ())
    configs;
  T.print table

let e18 () =
  e18_configs ~repeats:3 ~queries:12
    [ (16, 50, None);
      (32, 100, None);
      (* The acceptance point: largest workload, >= 5x warm speedup. *)
      (48, 200, Some 5.0) ]
    ()

(* ------------------------------------------------------------------ *)
(* E19: live updates — delta-patched maintenance of the inverted index,
   statistics and result caches vs rebuilding them from scratch.  Each
   round pushes a small updategram through Updategram.apply and then
   brings the derived structures current: the touched relation's index
   entry (Kwindex patches its postings vs Kwindex.reset and a full
   reindex), its statistics (Stats.of_relation's delta fold vs
   Reference.stats_scan's rescan), and a cached answer whose pinned
   constant can never unify with the changed tuples (the delta probe
   keeps the entry; the baseline drops every reader with an empty
   updategram and pays a full re-answer every round).  Both modes
   replay the identical update stream on identically generated worlds.
   The first search after each gram is timed on its own in both modes
   ([rebuild_search_ms], [incremental_search_ms]): it pays for the
   corpus df and the norms the gram moved, which maintenance up to
   [Kwindex.get] leaves to it.  Guards: search hit
   lists and query answers byte-identical between the modes (the
   rebuild pass resets the index before every search),
   zero pdms.delta.rebuild_fallbacks and zero full corpus merges
   (pdms.kwindex.df_merges) after warm-up in the incremental runs, and
   a minimum speedup at the config's guard point (exit 1 otherwise). *)

let e19_world n tuples_per_peer =
  let prng = Util.Prng.create (1900 + n + tuples_per_peer) in
  let topology = Pdms.Topology.generate ~prng (Pdms.Topology.Mesh 1) ~n in
  let g =
    Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
      ~tuples_per_peer ~with_join:true ()
  in
  let queries =
    Workload.Peers_gen.keyword_queries g (Util.Prng.split prng) ~n:4
  in
  let p0 = g.Workload.Peers_gen.peers.(0) in
  let pinned =
    Cq.Query.make
      (Cq.Atom.make "pin" [ Cq.Term.v "T" ])
      [ Pdms.Peer.atom p0 "course"
          [ Cq.Term.Const (Relalg.Value.Str "e19-nosuch"); Cq.Term.v "T";
            Cq.Term.v "I" ] ]
  in
  (g, queries, pinned)

(* The update stream is a pure function of the round number, so separate
   worlds replay byte-identical mutations: one insert per round into the
   stored relations round-robin, plus (once the stream wraps around) the
   retraction of the row inserted a full lap earlier. *)
let e19_gram db names i =
  let k = List.length names in
  let rel = List.nth names (i mod k) in
  let arity =
    Relalg.Schema.arity (Relalg.Relation.schema (Relalg.Database.find db rel))
  in
  let row j =
    Array.init arity (fun c ->
        Relalg.Value.Str (Printf.sprintf "delta%d col%d" j c))
  in
  let deletes = if i >= k then [ row (i - k) ] else [] in
  Pdms.Updategram.make ~rel ~inserts:[ row i ] ~deletes ()

let e19_fallbacks () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ())
    "pdms.delta.rebuild_fallbacks"

let e19_df_merges () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.kwindex.df_merges"

let e19_configs ~rounds configs () =
  header "E19"
    "live updates: delta-patched index/stats/cache maintenance vs \
     rebuild from scratch (round-robin updategrams)";
  let table =
    T.create
      [ "peers"; "tuples"; "rounds"; "patched"; "stats_patched";
        "cache_kept"; "rebuild_ms"; "incremental_ms"; "speedup";
        "rebuild_search_ms"; "incremental_search_ms" ]
  in
  List.iter
    (fun (n, tuples_per_peer, min_speedup) ->
      (* Full corpus merges the incremental runs do after warm-up. *)
      let merges = ref 0 in
      (* A fresh world per mode and pass: identical seeds give identical
         catalogs, so the streams are comparable tuple for tuple. *)
      let fresh () =
        Pdms.Kwindex.reset ();
        Relalg.Stats.reset_cache ();
        let g, queries, pinned = e19_world n tuples_per_peer in
        let catalog = g.Workload.Peers_gen.catalog in
        let db = Pdms.Catalog.global_db catalog in
        let names = List.sort String.compare (Relalg.Database.names db) in
        let cache = Pdms.Cache.create catalog () in
        (* Warm every derived structure to the pre-update state. *)
        List.iter (fun q -> ignore (Pdms.Keyword.search catalog q)) queries;
        List.iter
          (fun nm ->
            ignore (Relalg.Stats.of_relation (Relalg.Database.find db nm)))
          names;
        ignore (Pdms.Cache.answer cache pinned);
        (queries, pinned, catalog, db, names, cache)
      in
      (* One maintenance round: apply the gram, then bring every derived
         structure current for the touched relation.  This is the timed
         unit — query *serving* (probing, corpus merge, ranking) costs
         the same in both modes and is exercised untimed below. *)
      let round (_, pinned, _, db, names, cache) ~incremental i =
        let u = e19_gram db names i in
        let rel_name = u.Pdms.Updategram.rel in
        let rel = Relalg.Database.find db rel_name in
        Pdms.Updategram.apply db u;
        if incremental then begin
          ignore (Pdms.Cache.invalidate cache u);
          ignore (Pdms.Kwindex.get ~rel_name rel);
          ignore (Relalg.Stats.of_relation rel)
        end
        else begin
          let wildcard = Pdms.Updategram.make ~rel:rel_name () in
          ignore (Pdms.Cache.invalidate cache wildcard);
          Pdms.Kwindex.reset ();
          ignore (Pdms.Kwindex.get ~rel_name rel);
          ignore (Reference.stats_scan rel)
        end;
        ignore (Pdms.Cache.answer cache pinned)
      in
      (* Byte-identity pass: replay the stream in both modes, transcribing
         rendered hits and query answers every round. *)
      let transcript ~incremental =
        let (queries, _, catalog, _, _, _) as world = fresh () in
        let merges0 = e19_df_merges () in
        let acc = ref [] in
        for i = 0 to min rounds 8 - 1 do
          round world ~incremental i;
          if not incremental then Pdms.Kwindex.reset ();
          let hits =
            Pdms.Keyword.search ~limit:10 catalog
              (List.nth queries (i mod List.length queries))
          in
          acc := List.rev_append (List.map Pdms.Keyword.render_hit hits) !acc;
          let aq =
            Cq.Query.make
              (Cq.Atom.make "ans"
                 [ Cq.Term.v "C"; Cq.Term.v "T"; Cq.Term.v "I" ])
              [ Cq.Atom.make "p0.course"
                  [ Cq.Term.v "C"; Cq.Term.v "T"; Cq.Term.v "I" ] ]
          in
          let answers = Pdms.Answer.answers_list (Pdms.Answer.answer catalog aq) in
          acc := List.rev_append (List.map (String.concat "|") answers) !acc
        done;
        if incremental then merges := !merges + e19_df_merges () - merges0;
        !acc
      in
      let fb0 = e19_fallbacks () in
      let t_incr = transcript ~incremental:true in
      let fb_identity = e19_fallbacks () - fb0 in
      let t_rebuild = transcript ~incremental:false in
      if t_incr <> t_rebuild then begin
        Printf.printf
          "E19 FAILED: incremental and rebuild transcripts differ (peers=%d)\n"
          n;
        exit 1
      end;
      (* Timing pass: maintenance rounds, and apart from them the first
         search after each gram. *)
      let timed ~incremental =
        let ((queries, _, catalog, _, _, _) as world) = fresh () in
        let merges0 = e19_df_merges () in
        let maintain_ms = ref 0.0 and search_ms = ref 0.0 in
        for i = 0 to rounds - 1 do
          let ms, () = wall_ms (fun () -> round world ~incremental i) in
          maintain_ms := !maintain_ms +. ms;
          let query = List.nth queries (i mod List.length queries) in
          let ms, _ = wall_ms (fun () -> Pdms.Keyword.search catalog query) in
          search_ms := !search_ms +. ms
        done;
        if incremental then merges := !merges + e19_df_merges () - merges0;
        (!maintain_ms, !search_ms)
      in
      let rebuild_ms, rebuild_search_ms = timed ~incremental:false in
      let fb1 = e19_fallbacks () in
      let before = Obs.Metrics.snapshot () in
      let incremental_ms, incremental_search_ms = timed ~incremental:true in
      let after = Obs.Metrics.snapshot () in
      let fb_timed = e19_fallbacks () - fb1 in
      if fb_identity + fb_timed > 0 then begin
        Printf.printf
          "E19 FAILED: %d rebuild fallbacks in incremental mode (peers=%d)\n"
          (fb_identity + fb_timed) n;
        exit 1
      end;
      if !merges > 0 then begin
        Printf.printf
          "E19 FAILED: %d full corpus merges after warm-up in incremental \
           mode (peers=%d)\n"
          !merges n;
        exit 1
      end;
      let delta name =
        Obs.Metrics.counter_value after name
        - Obs.Metrics.counter_value before name
      in
      let patched = delta "pdms.delta.patched_postings" in
      let stats_patched = delta "pdms.delta.stats_patched" in
      let cache_kept = delta "pdms.delta.cache_kept" in
      let speedup = rebuild_ms /. Float.max 0.001 incremental_ms in
      T.add_row table
        [ T.cell_i n; T.cell_i tuples_per_peer; T.cell_i rounds;
          T.cell_i patched; T.cell_i stats_patched; T.cell_i cache_kept;
          T.cell_f rebuild_ms; T.cell_f incremental_ms; T.cell_f speedup;
          T.cell_f rebuild_search_ms; T.cell_f incremental_search_ms ];
      Printf.printf
        "BENCH_e19 {\"peers\":%d,\"tuples_per_peer\":%d,\"rounds\":%d,\
         \"patched_postings\":%d,\"stats_patched\":%d,\"cache_kept\":%d,\
         \"rebuild_ms\":%.2f,\"incremental_ms\":%.2f,\"speedup\":%.2f,\
         \"rebuild_search_ms\":%.2f,\"incremental_search_ms\":%.2f}\n"
        n tuples_per_peer rounds patched stats_patched cache_kept rebuild_ms
        incremental_ms speedup rebuild_search_ms incremental_search_ms;
      match min_speedup with
      | Some floor when speedup < floor ->
          Printf.printf
            "E19 FAILED: speedup %.2fx below the %.1fx floor at peers=%d\n"
            speedup floor n;
          exit 1
      | Some _ | None -> ())
    configs;
  T.print table

let e19 () =
  e19_configs ~rounds:40
    [ (8, 60, None);
      (16, 120, None);
      (* The acceptance point: largest workload, >= 5x incremental win. *)
      (32, 200, Some 5.0) ]
    ()

(* ------------------------------------------------------------------ *)
(* E20: durability cost — write-ahead logging overhead on the E19
   maintenance sweep (guard: < 2x over in-memory), and recovery time as
   a function of the WAL suffix length (snapshotting resets the curve
   to near-zero). *)

let with_e20_dir f = Tmpdir.with_dir ~prefix:"revere-e20" f

let e20_configs ~rounds ~suffixes configs () =
  header "E20"
    "durability: WAL append overhead on the E19 maintenance sweep, and \
     recovery time vs WAL suffix length";
  (* One E19-style maintenance round, with the gram applied through
     [apply_gram] — the only difference between the modes is whether
     that call tees the effective delta into the WAL first. *)
  let round apply_gram catalog db names cache pinned i =
    let u = e19_gram db names i in
    let rel = Relalg.Database.find db u.Pdms.Updategram.rel in
    apply_gram u;
    ignore (Pdms.Cache.invalidate cache u);
    ignore (Pdms.Kwindex.get ~rel_name:u.Pdms.Updategram.rel rel);
    ignore (Relalg.Stats.of_relation rel);
    ignore (Pdms.Cache.answer cache (pinned : Cq.Query.t));
    ignore (catalog : Pdms.Catalog.t)
  in
  let warm catalog db queries pinned cache names =
    List.iter (fun q -> ignore (Pdms.Keyword.search catalog q)) queries;
    List.iter
      (fun nm ->
        ignore (Relalg.Stats.of_relation (Relalg.Database.find db nm)))
      names;
    ignore (Pdms.Cache.answer cache pinned)
  in
  let table =
    T.create
      [ "peers"; "tuples"; "rounds"; "mem_ms"; "wal_ms"; "overhead";
        "wal_kb"; "appends" ]
  in
  List.iter
    (fun (n, tuples_per_peer, max_overhead) ->
      (* In-memory baseline: the E19 sweep as-is. *)
      Pdms.Kwindex.reset ();
      Relalg.Stats.reset_cache ();
      let g, queries, pinned = e19_world n tuples_per_peer in
      let catalog = g.Workload.Peers_gen.catalog in
      let db = Pdms.Catalog.global_db catalog in
      let names = List.sort String.compare (Relalg.Database.names db) in
      let cache = Pdms.Cache.create catalog () in
      warm catalog db queries pinned cache names;
      let mem_ms, () =
        wall_ms (fun () ->
            for i = 0 to rounds - 1 do
              round
                (fun u -> Pdms.Updategram.apply db u)
                catalog db names cache pinned i
            done)
      in
      (* Durable: an identically-seeded world recovered from its own
         init snapshot, every effective delta teed into the WAL. *)
      Pdms.Kwindex.reset ();
      Relalg.Stats.reset_cache ();
      let g2, queries2, pinned2 = e19_world n tuples_per_peer in
      let wal_ms, wal_bytes, appends =
        with_e20_dir @@ fun dir ->
        Pdms.Persist.init ~dir g2.Workload.Peers_gen.catalog;
        let t = Pdms.Persist.open_dir_exn dir in
        let catalog2 = Pdms.Persist.catalog t and db2 = Pdms.Persist.db t in
        let names2 = List.sort String.compare (Relalg.Database.names db2) in
        let cache2 = Pdms.Cache.create catalog2 () in
        warm catalog2 db2 queries2 pinned2 cache2 names2;
        let before = Obs.Metrics.snapshot () in
        let wal_ms, () =
          wall_ms (fun () ->
              for i = 0 to rounds - 1 do
                round
                  (fun u -> Pdms.Persist.apply t u)
                  catalog2 db2 names2 cache2 pinned2 i
              done)
        in
        let after = Obs.Metrics.snapshot () in
        let wal_bytes = Pdms.Persist.wal_size t in
        Pdms.Persist.close t;
        ( wal_ms,
          wal_bytes,
          Obs.Metrics.counter_value after "pdms.wal.appends"
          - Obs.Metrics.counter_value before "pdms.wal.appends" )
      in
      let overhead = wal_ms /. Float.max 0.001 mem_ms in
      T.add_row table
        [ T.cell_i n; T.cell_i tuples_per_peer; T.cell_i rounds;
          T.cell_f mem_ms; T.cell_f wal_ms; T.cell_f overhead;
          T.cell_f (float_of_int wal_bytes /. 1024.0); T.cell_i appends ];
      Printf.printf
        "BENCH_e20 {\"peers\":%d,\"tuples_per_peer\":%d,\"rounds\":%d,\
         \"mem_ms\":%.2f,\"wal_ms\":%.2f,\"overhead\":%.2f,\
         \"wal_bytes\":%d,\"appends\":%d}\n"
        n tuples_per_peer rounds mem_ms wal_ms overhead wal_bytes appends;
      match max_overhead with
      | Some cap when overhead > cap ->
          Printf.printf
            "E20 FAILED: WAL overhead %.2fx above the %.1fx cap at peers=%d\n"
            overhead cap n;
          exit 1
      | Some _ | None -> ())
    configs;
  T.print table;
  (* Recovery time grows with the replayed WAL suffix; a snapshot
     resets it to (nearly) the parse cost alone. *)
  let rtable =
    T.create [ "wal_records"; "recover_ms"; "snap_recover_ms" ]
  in
  List.iter
    (fun suffix ->
      Pdms.Kwindex.reset ();
      Relalg.Stats.reset_cache ();
      let g, _, _ = e19_world 6 30 in
      with_e20_dir @@ fun dir ->
      Pdms.Persist.init ~dir g.Workload.Peers_gen.catalog;
      let t = Pdms.Persist.open_dir_exn dir in
      let db = Pdms.Persist.db t in
      let names = List.sort String.compare (Relalg.Database.names db) in
      for i = 0 to suffix - 1 do
        Pdms.Persist.apply t (e19_gram db names i)
      done;
      Pdms.Persist.close t;
      let recover_ms, t' = wall_ms (fun () -> Pdms.Persist.open_dir_exn dir) in
      ignore (Pdms.Persist.snapshot t');
      Pdms.Persist.close t';
      let snap_recover_ms, t'' =
        wall_ms (fun () -> Pdms.Persist.open_dir_exn dir)
      in
      Pdms.Persist.close t'';
      T.add_row rtable
        [ T.cell_i suffix; T.cell_f recover_ms; T.cell_f snap_recover_ms ];
      Printf.printf
        "BENCH_e20_recovery {\"wal_records\":%d,\"recover_ms\":%.2f,\
         \"snap_recover_ms\":%.2f}\n"
        suffix recover_ms snap_recover_ms)
    suffixes;
  T.print rtable

let e20 () =
  e20_configs ~rounds:400 ~suffixes:[ 100; 400; 1600 ]
    [ (8, 60, None);
      (* The acceptance point: logging every delta must stay under 2x
         the in-memory sweep. *)
      (16, 120, Some 2.0) ]
    ()

(* Tiny sizes so `dune build @bench-smoke` exercises the harness without
   a full run. *)
let smoke () =
  e1_sized [ 4 ] ();
  e13_configs [ (4, 10) ] ();
  e14_configs ~sweep:[ (6, 48) ] ~cache_entries:[ 32 ] ();
  e15_configs ~peers:12 ~cap:128 ~threshold_pct:30.0 ();
  e16_configs ~peers:6 ~tuples_per_peer:2 ~rates:[ 0.0; 0.5 ] ();
  (* Durability runs before the timing-guarded experiments (their
     machine-sensitive floors can exit early): the WAL-overhead cap is
     left unguarded at smoke sizes (a single round is timer noise); the
     recovery path still runs. *)
  e20_configs ~rounds:20 ~suffixes:[ 50 ] [ (6, 20, None) ] ();
  (* Best-of-5 keeps the tiny high-sharing point's batch-never-slower
     guard (1.0x) out of timer-noise territory. *)
  e17_configs ~repeats:5 [ ("mesh2", Pdms.Topology.Mesh 2, 10, 20, Some 1.0) ] ();
  (* Indexed-never-slower floor: warm repeated searches must at least
     match brute force even at toy sizes. *)
  e18_configs ~repeats:5 ~queries:4 [ (6, 20, Some 1.0) ] ();
  (* Incremental-never-slower floor plus the byte-identity and
     zero-fallback guards at toy sizes. *)
  e19_configs ~rounds:5 [ (6, 40, Some 1.0) ] ()

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
            ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
            ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14);
            ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
            ("e19", e19); ("e20", e20) ]
