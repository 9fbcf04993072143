(* Tests for the Piazza PDMS: reformulation over mapping chains,
   topology/network simulation, updategrams and view maintenance. *)

open Cq
module P = Pdms

let v = Term.v
let atom = Atom.make
let q head body = Query.make head body
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let vs s = Relalg.Value.Str s
let insert rel row = Relalg.Relation.apply rel (Relalg.Relation.Delta.add row)

(* ------------------------------------------------------------------ *)
(* Scenario builders *)

(* Two universities; MIT stores data; an equality mapping relates the
   two schemas. Querying UW's schema must surface MIT's data. *)
let two_peer_catalog mapping_kind =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  List.iter (insert stored)
    [ [| vs "6.033"; vs "systems" |]; [| vs "6.830"; vs "databases" |] ];
  let lhs = q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ] in
  let rhs = q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom uw "course" [ v "C"; v "T" ] ] in
  let mapping =
    match mapping_kind with
    | `Equality -> P.Peer_mapping.equality ~lhs ~rhs
    | `Inclusion -> P.Peer_mapping.inclusion ~lhs ~rhs
  in
  ignore (P.Catalog.add_mapping catalog mapping);
  (catalog, uw, mit)

let test_two_peer_equality () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  let result = P.Answer.answer catalog query in
  check_i "both MIT courses" 2 (Relalg.Relation.cardinality result.P.Answer.answers);
  check_b "some rewriting emitted" true
    (result.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.emitted > 0)

(* A head variable absent from the body has no value: reformulation
   refuses the query, so every answer path fails the same way whether
   its rewritings would have been empty (one atom) or not (the join). *)
let test_unsafe_query_refused () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let xy = [ v "X"; v "Y" ] in
  let unsafe body = q (atom "q" [ v "X"; v "Z" ]) body in
  let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
  let cache = P.Cache.create catalog () in
  let refused = Invalid_argument "Reformulate.reformulate: unsafe query" in
  List.iter
    (fun query ->
      Alcotest.check_raises "reformulate" refused (fun () ->
          ignore (P.Reformulate.reformulate catalog query));
      Alcotest.check_raises "answer" refused (fun () ->
          ignore (P.Answer.answer catalog query));
      Alcotest.check_raises "distributed" refused (fun () ->
          ignore (P.Distributed.execute catalog network ~at:"uw" query));
      Alcotest.check_raises "cache" refused (fun () ->
          ignore (P.Cache.answer cache query)))
    [ unsafe [ P.Peer.atom uw "course" xy; P.Peer.atom mit "subject" xy ];
      unsafe [ P.Peer.atom uw "course" xy ] ]

let test_two_peer_inclusion_directionality () =
  let catalog, uw, mit = two_peer_catalog `Inclusion in
  (* mit.subject ⊆ uw.course: querying uw gets MIT data... *)
  let q_uw = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "uw sees mit data" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_uw).P.Answer.answers);
  (* ... and querying mit.subject is answered from MIT's own storage
     (the mapping is not reversed). *)
  let q_mit = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ] in
  check_i "mit local storage" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_mit).P.Answer.answers)

let test_definitional_mapping () =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  insert stored [| vs "6.033"; vs "systems" |];
  (* GAV-style: uw.course defined from mit.subject. *)
  let rule =
    q
      (P.Peer.atom uw "course" [ v "C"; v "T" ])
      [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ]
  in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.definitional rule));
  let query = q (atom "ans" [ v "X" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "one course" 1
    (Relalg.Relation.cardinality (P.Answer.answer catalog query).P.Answer.answers)

(* A definitional rule is not its relation's only source: peer b stores
   rows of its own, receives c's rows through an inclusion, and defines
   b.rel from a.rel, so a query at b returns all three peers' rows. *)
let test_definitional_keeps_other_sources () =
  let catalog = P.Catalog.create () in
  let schema = [ ("rel", [ "code"; "title" ]) ] in
  let peer name =
    let p = P.Peer.create ~name ~schema in
    P.Catalog.add_peer catalog p;
    insert (P.Catalog.store_identity catalog p ~rel:"rel") [| vs (name ^ "1"); vs ("from " ^ name) |];
    p
  in
  let a = peer "a" and b = peer "b" and c = peer "c" in
  let xy = [ v "X"; v "Y" ] in
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.definitional (q (P.Peer.atom b "rel" xy) [ P.Peer.atom a "rel" xy ])));
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.inclusion
          ~lhs:(q (atom "m" xy) [ P.Peer.atom c "rel" xy ])
          ~rhs:(q (atom "m" xy) [ P.Peer.atom b "rel" xy ])));
  Alcotest.(check (list (list string)))
    "rows of all three peers"
    [ [ "a1"; "from a" ]; [ "b1"; "from b" ]; [ "c1"; "from c" ] ]
    (P.Answer.answers_list
       (P.Answer.answer catalog (q (atom "ans" xy) [ P.Peer.atom b "rel" xy ])))

(* Two LAV steps on one path, each leaving an existential: the second
   step's fresh name must not reuse the first's [~f1], or the rewriting
   equates two unrelated variables (here [s.z]'s and [s.y]'s) and finds
   no answer. *)
let test_fresh_names_across_lav_steps () =
  let catalog = P.Catalog.create () in
  let peer name schema =
    let p = P.Peer.create ~name ~schema in
    P.Catalog.add_peer catalog p;
    p
  in
  let a = peer "a" [ ("r", [ "x" ]) ] in
  let b = peer "b" [ ("t", [ "x"; "y" ]); ("u", [ "z" ]) ] in
  let k = peer "k" [ ("k", [ "x" ]) ] in
  let s = peer "s" [ ("z", [ "q" ]); ("y", [ "q" ]) ] in
  let vi i = Relalg.Value.Int i in
  let store p rel attrs head body row =
    let stored = P.Peer.add_stored p ~rel ~attrs in
    P.Catalog.add_storage catalog
      (P.Storage_desc.make P.Storage_desc.Containment
         (q (atom (P.Peer.stored_pred p rel) head) body));
    insert stored row
  in
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.definitional
          (q (P.Peer.atom a "r" [ v "X" ])
             [ P.Peer.atom b "t" [ v "X"; v "Y" ]; P.Peer.atom b "u" [ v "Y" ] ])));
  store b "t2" [ "p"; "r"; "q" ] [ v "P"; v "R"; v "Q" ]
    [ P.Peer.atom b "t" [ v "P"; v "R" ]; P.Peer.atom s "z" [ v "Q" ] ]
    [| vi 1; vi 5; vi 7 |];
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.inclusion
          ~lhs:(q (atom "m" [ v "A" ]) [ P.Peer.atom k "k" [ v "A" ] ])
          ~rhs:(q (atom "m" [ v "A" ]) [ P.Peer.atom b "u" [ v "A" ] ])));
  store k "kk" [ "d"; "e" ] [ v "D"; v "E" ]
    [ P.Peer.atom k "k" [ v "D" ]; P.Peer.atom s "y" [ v "E" ] ]
    [| vi 5; vi 9 |];
  let result = P.Answer.answer catalog (q (atom "q" [ v "X" ]) [ P.Peer.atom a "r" [ v "X" ] ]) in
  Alcotest.(check (list string))
    "the two existentials stay apart"
    [ "q(X~g1) :- b.t2!(X~g1, A~g2, ~f1), k.kk!(A~g2, ~f2)" ]
    (List.map Query.to_string result.P.Answer.outcome.P.Reformulate.rewritings);
  Alcotest.(check (list (list string))) "the certain answer" [ [ "1" ] ]
    (P.Answer.answers_list result)

(* Chain of equalities: peer0 - peer1 - ... - peer_{n-1}; data lives at
   the last peer; query at peer0 must traverse the transitive closure. *)
let chain_catalog n =
  let catalog = P.Catalog.create () in
  let peers =
    List.init n (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "p%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        p)
  in
  let last = List.nth peers (n - 1) in
  let stored = P.Catalog.store_identity catalog last ~rel:"course" in
  List.iter (insert stored)
    [ [| vs "c1"; vs "ancient history" |]; [| vs "c2"; vs "databases" |] ];
  List.iteri
    (fun i p ->
      if i < n - 1 then begin
        let next = List.nth peers (i + 1) in
        let lhs =
          q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom next "course" [ v "C"; v "T" ] ]
        in
        let rhs =
          q (atom "m" [ v "C"; v "T" ]) [ P.Peer.atom p "course" [ v "C"; v "T" ] ]
        in
        ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs))
      end)
    peers;
  (catalog, peers)

let test_chain_transitive_closure () =
  List.iter
    (fun n ->
      let catalog, peers = chain_catalog n in
      let p0 = List.hd peers in
      let query =
        q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
      in
      let result = P.Answer.answer catalog query in
      check_i
        (Printf.sprintf "chain %d answers" n)
        2
        (Relalg.Relation.cardinality result.P.Answer.answers))
    [ 2; 3; 5; 8 ]

let test_chain_mapping_count_linear () =
  let catalog, _ = chain_catalog 10 in
  check_i "n-1 mappings" 9 (P.Catalog.mapping_count catalog)

let test_reachability () =
  let catalog, _ = chain_catalog 4 in
  let reachable = P.Answer.reachable_peers catalog "p0" in
  check_i "all peers reachable" 4 (List.length reachable)

(* Sibling subgoals through the same mapping: the per-atom history must
   allow unfolding the same mapping predicate for both atoms. *)
let test_same_mapping_twice_in_one_query () =
  let catalog = P.Catalog.create () in
  let a = P.Peer.create ~name:"a" ~schema:[ ("r", [ "x"; "y" ]) ] in
  let b = P.Peer.create ~name:"b" ~schema:[ ("r2", [ "x"; "y" ]) ] in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog b;
  let stored = P.Catalog.store_identity catalog b ~rel:"r2" in
  List.iter (insert stored)
    [ [| vs "1"; vs "2" |]; [| vs "3"; vs "4" |] ];
  let lhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom b "r2" [ v "X"; v "Y" ] ] in
  let rhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom a "r" [ v "X"; v "Y" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs));
  let query =
    q
      (atom "ans" [ v "X"; v "Y"; v "X2"; v "Y2" ])
      [ P.Peer.atom a "r" [ v "X"; v "Y" ]; P.Peer.atom a "r" [ v "X2"; v "Y2" ] ]
  in
  let result = P.Answer.answer catalog query in
  check_i "cross product" 4 (Relalg.Relation.cardinality result.P.Answer.answers)

let test_local_plus_remote_union () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  (* Give UW local storage too. *)
  let stored = P.Catalog.store_identity catalog uw ~rel:"course" in
  insert stored [| vs "cse444"; vs "databases uw" |];
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "local + remote" 3
    (Relalg.Relation.cardinality (P.Answer.answer catalog query).P.Answer.answers)

let test_join_query_through_mapping () =
  let catalog = P.Catalog.create () in
  let a =
    P.Peer.create ~name:"a" ~schema:[ ("r", [ "x"; "y" ]); ("s", [ "y"; "z" ]) ]
  in
  let b =
    P.Peer.create ~name:"b" ~schema:[ ("r2", [ "x"; "y" ]); ("s2", [ "y"; "z" ]) ]
  in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog b;
  let sr = P.Catalog.store_identity catalog b ~rel:"r2" in
  let ss = P.Catalog.store_identity catalog b ~rel:"s2" in
  List.iter (insert sr) [ [| vs "1"; vs "2" |]; [| vs "5"; vs "6" |] ];
  List.iter (insert ss) [ [| vs "2"; vs "3" |] ];
  (* Two separate mappings, one per relation. *)
  let m1_lhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom b "r2" [ v "X"; v "Y" ] ] in
  let m1_rhs = q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom a "r" [ v "X"; v "Y" ] ] in
  let m2_lhs = q (atom "m" [ v "Y"; v "Z" ]) [ P.Peer.atom b "s2" [ v "Y"; v "Z" ] ] in
  let m2_rhs = q (atom "m" [ v "Y"; v "Z" ]) [ P.Peer.atom a "s" [ v "Y"; v "Z" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs:m1_lhs ~rhs:m1_rhs));
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs:m2_lhs ~rhs:m2_rhs));
  let query =
    q
      (atom "ans" [ v "X"; v "Z" ])
      [ P.Peer.atom a "r" [ v "X"; v "Y" ]; P.Peer.atom a "s" [ v "Y"; v "Z" ] ]
  in
  let result = P.Answer.answer catalog query in
  let rows = P.Answer.answers_list result in
  check_b "join answer" true (rows = [ [ "1"; "3" ] ])

(* Cyclic mapping graph: every peer's data must still be found by the
   pruned search, each tuple exactly once. *)
let test_mesh_completeness () =
  let prng = Util.Prng.create 77 in
  let topology = P.Topology.generate ~prng (P.Topology.Mesh 1) ~n:10 in
  let catalog = P.Catalog.create () in
  let peers =
    Array.init 10 (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "m%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        insert stored
          [| vs (Printf.sprintf "c%d" i); vs (Printf.sprintf "t%d" i) |];
        insert stored
          [| vs (Printf.sprintf "c%d'" i); vs (Printf.sprintf "t%d'" i) |];
        p)
  in
  List.iter
    (fun (a, b) ->
      let args = [ v "X"; v "Y" ] in
      let lhs = q (atom "m" args) [ P.Peer.atom peers.(a) "course" args ] in
      let rhs = q (atom "m" args) [ P.Peer.atom peers.(b) "course" args ] in
      ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.equality ~lhs ~rhs)))
    topology.P.Topology.edges;
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom peers.(0) "course" [ v "X"; v "Y" ] ]
  in
  let result = P.Answer.answer catalog query in
  check_i "all peers' tuples" 20
    (Relalg.Relation.cardinality result.P.Answer.answers)

let test_no_pruning_terminates_and_agrees () =
  let catalog, peers = chain_catalog 4 in
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
  in
  let pruning = { P.Exec.no_pruning with P.Exec.max_depth = 10 } in
  let loose = P.Answer.answer ~exec:(P.Exec.with_pruning pruning) catalog query in
  let tight = P.Answer.answer catalog query in
  check_b "same answers" true
    (P.Answer.answers_list loose = P.Answer.answers_list tight);
  check_b "pruning reduces work" true
    (tight.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.nodes_expanded
    <= loose.P.Answer.outcome.P.Reformulate.stats.P.Reformulate.nodes_expanded)

let test_projection_mapping () =
  (* The mapping only exposes the course code, not the title. *)
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  let mit = P.Peer.create ~name:"mit" ~schema:[ ("subject", [ "id"; "name" ]) ] in
  P.Catalog.add_peer catalog uw;
  P.Catalog.add_peer catalog mit;
  let stored = P.Catalog.store_identity catalog mit ~rel:"subject" in
  insert stored [| vs "6.033"; vs "systems" |];
  let lhs = q (atom "m" [ v "C" ]) [ P.Peer.atom mit "subject" [ v "C"; v "T" ] ] in
  let rhs = q (atom "m" [ v "C" ]) [ P.Peer.atom uw "course" [ v "C"; v "T" ] ] in
  ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.inclusion ~lhs ~rhs));
  (* Asking only for codes succeeds... *)
  let q_code = q (atom "ans" [ v "X" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "codes flow" 1
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_code).P.Answer.answers);
  (* ... asking for titles cannot be answered through this mapping. *)
  let q_title = q (atom "ans" [ v "T" ]) [ P.Peer.atom uw "course" [ v "X"; v "T" ] ] in
  check_i "titles do not flow" 0
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_title).P.Answer.answers)

(* ------------------------------------------------------------------ *)
(* Topology and network *)

let test_topology_shapes () =
  let chain = P.Topology.generate P.Topology.Chain ~n:8 in
  check_i "chain edges" 7 (P.Topology.edge_count chain);
  check_i "chain diameter" 7 (P.Topology.diameter chain);
  let star = P.Topology.generate P.Topology.Star ~n:8 in
  check_i "star edges" 7 (P.Topology.edge_count star);
  check_i "star diameter" 2 (P.Topology.diameter star);
  let ring = P.Topology.generate P.Topology.Ring ~n:8 in
  check_i "ring edges" 8 (P.Topology.edge_count ring);
  let tree = P.Topology.generate P.Topology.Binary_tree ~n:7 in
  check_i "tree edges" 6 (P.Topology.edge_count tree);
  let prng = Util.Prng.create 5 in
  let mesh = P.Topology.generate ~prng (P.Topology.Mesh 2) ~n:8 in
  check_b "mesh has extra edges" true (P.Topology.edge_count mesh >= 7)

let test_network_routing () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "b" "c" ~latency_ms:5.0;
  P.Network.connect net "a" "c" ~latency_ms:50.0;
  (match P.Network.latency net "a" "c" with
  | Some l -> Alcotest.(check (float 1e-9)) "via b" 15.0 l
  | None -> Alcotest.fail "disconnected");
  (match P.Network.hops net "a" "c" with
  | Some h -> check_i "two hops" 2 h
  | None -> Alcotest.fail "disconnected");
  (match P.Network.send net ~src:"a" ~dst:"c" ~size:1024 with
  | Ok t -> Alcotest.(check (float 1e-9)) "send time" 16.0 t
  | Error e -> Alcotest.fail (P.Network.error_to_string e));
  check_i "one message" 1 (P.Network.messages_sent net);
  (* cost is pure: same price, no counter movement. *)
  (match P.Network.cost net ~src:"a" ~dst:"c" ~size:1024 with
  | Some c -> Alcotest.(check (float 1e-9)) "cost agrees with send" 16.0 c
  | None -> Alcotest.fail "cost: disconnected");
  check_i "cost sent nothing" 1 (P.Network.messages_sent net)

let test_network_edge_dedupe () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "a" "b" ~latency_ms:25.0;
  P.Network.connect net "b" "a" ~latency_ms:4.0;
  (match P.Network.latency net "a" "b" with
  | Some l -> Alcotest.(check (float 1e-9)) "lowest latency wins" 4.0 l
  | None -> Alcotest.fail "disconnected");
  Alcotest.(check (list string)) "peers sorted, no dups" [ "a"; "b" ]
    (P.Network.peers net)

let test_network_faults () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.connect net "b" "c" ~latency_ms:10.0;
  let v0 = P.Network.Fault.topology_version net in
  P.Network.Fault.fail_peer net "b";
  check_b "version bumped" true (P.Network.Fault.topology_version net > v0);
  check_b "b is down" true (P.Network.Fault.is_down net "b");
  check_b "no route around b" true (P.Network.latency net "a" "c" = None);
  (match P.Network.send net ~src:"a" ~dst:"b" ~size:64 with
  | Error (P.Network.Peer_down "b") -> ()
  | _ -> Alcotest.fail "expected Peer_down b");
  check_i "failed sends not counted" 0 (P.Network.messages_sent net);
  P.Network.Fault.heal_peer net "b";
  check_b "healed route" true (P.Network.latency net "a" "c" = Some 20.0);
  (* Cutting the a-b link severs a from everyone. *)
  P.Network.Fault.cut_link net "a" "b";
  (match P.Network.send net ~src:"a" ~dst:"c" ~size:64 with
  | Error (P.Network.No_route ("a", "c")) -> ()
  | _ -> Alcotest.fail "expected No_route");
  P.Network.Fault.restore_link net "b" "a";
  check_b "restored (either arg order)" true
    (P.Network.latency net "a" "c" = Some 20.0);
  (* Latency spike inflates the route but keeps it alive. *)
  P.Network.Fault.spike net "a" "b" ~extra_ms:100.0;
  check_b "spiked" true (P.Network.latency net "a" "c" = Some 120.0);
  P.Network.Fault.heal net;
  check_b "heal clears spikes" true (P.Network.latency net "a" "c" = Some 20.0)

let test_network_retry_flaky () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:10.0;
  P.Network.Fault.flaky net ~p:1.0 ();
  let before = Obs.Metrics.snapshot () in
  let retry = { P.Exec.default_retry with P.Exec.max_attempts = 3 } in
  let prng = Util.Prng.create 42 in
  let o = P.Network.send_with_retry net ~retry ~prng ~src:"a" ~dst:"b" ~size:64 in
  (match o.P.Network.result with
  | Error (P.Network.Link_drop _) -> ()
  | _ -> Alcotest.fail "expected every attempt dropped");
  check_i "three attempts" 3 o.P.Network.attempts;
  check_i "two retries" 2 o.P.Network.retries;
  check_b "backoff accumulated" true (o.P.Network.backoff_ms > 0.0);
  check_b "elapsed covers timeouts + backoff" true
    (o.P.Network.elapsed_ms >= o.P.Network.backoff_ms);
  check_i "nothing delivered" 0 (P.Network.messages_sent net);
  let after = Obs.Metrics.snapshot () in
  let delta name =
    Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name
  in
  check_i "pdms.net.retries" 2 (delta "pdms.net.retries");
  check_i "pdms.net.gave_up" 1 (delta "pdms.net.gave_up");
  (* Turning flakiness off makes the same exchange succeed first try. *)
  P.Network.Fault.flaky net ~p:0.0 ();
  let o2 =
    P.Network.send_with_retry net ~retry ~prng ~src:"a" ~dst:"b" ~size:64
  in
  check_b "delivered" true (Result.is_ok o2.P.Network.result);
  check_i "first attempt" 1 o2.P.Network.attempts;
  check_i "one message" 1 (P.Network.messages_sent net)

let test_network_of_topology () =
  let topo = P.Topology.generate P.Topology.Chain ~n:4 in
  let net =
    P.Network.of_topology topo ~names:[ "p0"; "p1"; "p2"; "p3" ] ~base_latency_ms:2.0
  in
  match P.Network.latency net "p0" "p3" with
  | Some l -> Alcotest.(check (float 1e-9)) "three hops" 6.0 l
  | None -> Alcotest.fail "disconnected"

(* ------------------------------------------------------------------ *)
(* Updategrams *)

let vi i = Relalg.Value.Int i

let test_updategram_compose () =
  let a = P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1 |]; [| vi 2 |] ] () in
  let b = P.Updategram.make ~rel:"r" ~deletes:[ [| vi 1 |] ] ~inserts:[ [| vi 3 |] ] () in
  let c = P.Updategram.compose a b in
  check_i "two inserts" 2 (List.length c.P.Updategram.inserts);
  check_i "no deletes" 0 (List.length c.P.Updategram.deletes)

(* Updategram.apply and compose against direct mutation: random
   mem-guarded inserts and deletes land straight in the relations, each
   effective step is recorded as a one-tuple gram, and the grams fold per
   relation with compose.  Applying the folded grams to a copy of the
   initial database must reproduce the final contents. *)
let prop_updategram_compose_replay =
  QCheck.Test.make ~name:"composed one-step grams replay the final state"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = Relalg.Database.create () in
      let names = [ "r"; "s" ] in
      List.iter
        (fun name ->
          let rel = Relalg.Database.create_relation db name [ "a" ] in
          for _ = 1 to Util.Prng.int prng 4 do
            let tuple = [| vi (Util.Prng.int prng 5) |] in
            if not (Relalg.Relation.mem rel tuple) then insert rel tuple
          done)
        names;
      let initial = Relalg.Database.copy db in
      let grams = Hashtbl.create 2 in
      List.iter
        (fun rel -> Hashtbl.replace grams rel (P.Updategram.make ~rel ()))
        names;
      let record g =
        let rel = g.P.Updategram.rel in
        Hashtbl.replace grams rel
          (P.Updategram.compose (Hashtbl.find grams rel) g)
      in
      for _ = 1 to 30 do
        let name = if Util.Prng.bool prng then "r" else "s" in
        let rel = Relalg.Database.find db name in
        let tuple = [| vi (Util.Prng.int prng 5) |] in
        if Util.Prng.bernoulli prng 0.7 then begin
          if not (Relalg.Relation.mem rel tuple) then begin
            insert rel tuple;
            record (P.Updategram.make ~rel:name ~inserts:[ tuple ] ())
          end
        end
        else if Relalg.Relation.mem rel tuple then begin
          Relalg.Relation.apply rel (Relalg.Relation.Delta.remove tuple);
          record (P.Updategram.make ~rel:name ~deletes:[ tuple ] ())
        end
      done;
      List.iter
        (fun name -> P.Updategram.apply initial (Hashtbl.find grams name))
        names;
      let dump db name =
        Relalg.Relation.tuples (Relalg.Database.find db name)
        |> List.map (fun row -> Relalg.Value.to_string row.(0))
        |> List.sort compare
      in
      List.for_all (fun name -> dump initial name = dump db name) names)

(* ------------------------------------------------------------------ *)
(* View maintenance *)

let vm_db () =
  let db = Relalg.Database.create () in
  ignore (Relalg.Database.create_relation db "r" [ "a"; "b" ]);
  ignore (Relalg.Database.create_relation db "s" [ "b"; "c" ]);
  db

let vm_view =
  q (atom "vw" [ v "X"; v "Z" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]

let sorted_tuples vm =
  P.View_maintenance.tuples vm
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let test_view_maintenance_basic () =
  let db = vm_db () in
  let vm = P.View_maintenance.create db vm_view in
  check_i "empty initially" 0 (P.View_maintenance.cardinality vm);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1; vi 2 |] ] ());
  check_i "no join partner yet" 0 (P.View_maintenance.cardinality vm);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~inserts:[ [| vi 2; vi 3 |] ] ());
  check_b "join appears" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  (* A second derivation of the same output tuple. *)
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"r" ~inserts:[ [| vi 1; vi 5 |] ] ());
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~inserts:[ [| vi 5; vi 3 |] ] ());
  check_b "still one tuple" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  (* Deleting one derivation keeps the tuple; deleting both removes it. *)
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~deletes:[ [| vi 5; vi 3 |] ] ());
  check_b "survives one delete" true (sorted_tuples vm = [ [ "1"; "3" ] ]);
  P.View_maintenance.apply vm
    (P.Updategram.make ~rel:"s" ~deletes:[ [| vi 2; vi 3 |] ] ());
  check_i "gone after both" 0 (P.View_maintenance.cardinality vm)

let prop_view_maintenance_matches_recompute =
  QCheck.Test.make ~name:"incremental maintenance = recompute" ~count:80
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = vm_db () in
      let vm = P.View_maintenance.create db vm_view in
      let random_tuple () = [| vi (Util.Prng.int prng 4); vi (Util.Prng.int prng 4) |] in
      for _ = 1 to 25 do
        let rel = if Util.Prng.bool prng then "r" else "s" in
        let u =
          if Util.Prng.bernoulli prng 0.7 then
            P.Updategram.make ~rel ~inserts:[ random_tuple () ] ()
          else P.Updategram.make ~rel ~deletes:[ random_tuple () ] ()
        in
        P.View_maintenance.apply vm u
      done;
      let incremental = sorted_tuples vm in
      P.View_maintenance.refresh vm;
      incremental = sorted_tuples vm)

(* Non-identity storage description: the peer stores only a selection
   of its logical relation (A:R ⊆ Q(P) with a constant filter). *)
let test_storage_description_selection () =
  let catalog = P.Catalog.create () in
  let uw =
    P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title"; "dept" ]) ]
  in
  P.Catalog.add_peer catalog uw;
  (* Stored relation holds only CS courses, and only (code, title). *)
  let stored = P.Peer.add_stored uw ~rel:"cs_courses" ~attrs:[ "code"; "title" ] in
  let view =
    q
      (atom (P.Peer.stored_pred uw "cs_courses") [ v "C"; v "T" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "cs" ] ]
  in
  P.Catalog.add_storage catalog (P.Storage_desc.make P.Storage_desc.Containment view);
  List.iter (insert stored)
    [ [| vs "cse444"; vs "databases" |]; [| vs "cse446"; vs "ml" |] ];
  (* Asking for CS courses is answered from storage... *)
  let q_cs =
    q (atom "ans" [ v "C"; v "T" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "cs" ] ]
  in
  check_i "cs courses" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_cs).P.Answer.answers);
  (* ... asking for all courses still finds (only) the stored ones —
     the maximally contained answer. *)
  let q_all =
    q (atom "ans" [ v "C" ]) [ P.Peer.atom uw "course" [ v "C"; v "T"; v "D" ] ]
  in
  check_i "contained answer" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_all).P.Answer.answers);
  (* ... and asking specifically for history courses yields nothing. *)
  let q_hist =
    q (atom "ans" [ v "C" ])
      [ P.Peer.atom uw "course" [ v "C"; v "T"; Term.str "history" ] ]
  in
  check_i "no history stored" 0
    (Relalg.Relation.cardinality (P.Answer.answer catalog q_hist).P.Answer.answers)

(* ------------------------------------------------------------------ *)
(* Keyword search across the PDMS *)

(* A hit as its peer, relation, rendered tuple and the bits of its
   score: hit lists compared by key must agree bit for bit. *)
let hit_key (h : P.Keyword.hit) =
  ( h.P.Keyword.peer,
    h.P.Keyword.stored_rel,
    Array.map Relalg.Value.to_string h.P.Keyword.tuple,
    Int64.bits_of_float h.P.Keyword.score )

let test_keyword_search () =
  let catalog, _, mit = two_peer_catalog `Equality in
  ignore mit;
  let hits = P.Keyword.search catalog "databases" in
  check_b "finds the databases course" true
    (List.exists
       (fun (h : P.Keyword.hit) ->
         h.P.Keyword.peer = "mit"
         && Array.exists
              (fun v -> Relalg.Value.to_string v = "databases")
              h.P.Keyword.tuple)
       hits);
  (* Ranked: the databases tuple outranks the systems tuple. *)
  (match hits with
  | best :: _ ->
      check_b "best is databases" true
        (Array.exists
           (fun v -> Relalg.Value.to_string v = "databases")
           best.P.Keyword.tuple)
  | [] -> Alcotest.fail "no hits");
  check_i "no junk hits" 0 (List.length (P.Keyword.search catalog "zebra"));
  (* Ties: twelve rows over two relations hold "tie" once beside a
     token of their own, so all score alike and [limit] keeps three.
     The earliest insertions of the relation ranked first win, in
     insertion order, exactly as the brute-force scan ranks them; the
     second relation's rows only equal the floor, and lose to it. *)
  let catalog = P.Catalog.create () in
  let pt =
    P.Peer.create ~name:"pt" ~schema:[ ("r", [ "x"; "y" ]); ("s", [ "x"; "y" ]) ]
  in
  P.Catalog.add_peer catalog pt;
  let r = P.Catalog.store_identity catalog pt ~rel:"r" in
  let s = P.Catalog.store_identity catalog pt ~rel:"s" in
  for i = 0 to 5 do
    insert r [| vs (Printf.sprintf "r%d" i); vs "tie" |];
    insert s [| vs (Printf.sprintf "s%d" i); vs "tie" |]
  done;
  let hits = P.Keyword.search ~limit:3 catalog "tie" in
  check_b "ties rank as the brute-force scan" true
    (List.map hit_key hits
    = List.map hit_key (Reference.keyword_search ~limit:3 catalog "tie"));
  match hits with
  | first :: _ ->
      let rel =
        if first.P.Keyword.stored_rel = P.Peer.stored_pred pt "r" then r else s
      in
      check_b "three equal scores" true
        (List.length hits = 3
        && List.for_all
             (fun (h : P.Keyword.hit) -> h.P.Keyword.score = first.P.Keyword.score)
             hits);
      check_b "earlier insertion first" true
        (List.map (fun (h : P.Keyword.hit) -> h.P.Keyword.tuple) hits
        = List.filteri (fun i _ -> i < 3) (Relalg.Relation.tuples rel))
  | [] -> Alcotest.fail "no tie hits"

(* ------------------------------------------------------------------ *)
(* Distributed execution *)

let test_distributed_owner_parsing () =
  check_b "stored pred" true
    (P.Distributed.owner_of_pred "mit.subject!" = Some "mit");
  check_b "peer pred is not stored" true
    (P.Distributed.owner_of_pred "mit.subject" = None);
  check_b "unqualified" true (P.Distributed.owner_of_pred "course!" = None)

let test_distributed_beats_central () =
  (* Data at the far end of a chain; executing there and shipping only
     the (smaller) result must beat shipping the whole relation. *)
  let catalog, peers = chain_catalog 4 in
  let network = P.Network.create () in
  List.iteri
    (fun i _ ->
      if i < 3 then
        P.Network.connect network
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "p%d" (i + 1))
          ~latency_ms:10.0)
    peers;
  (* Bulk up the stored relation so shipping it is expensive. *)
  let last = List.nth peers 3 in
  let stored = Relalg.Database.find (P.Peer.stored_db last) (P.Peer.stored_pred last "course") in
  for i = 0 to 199 do
    insert stored
      [| vs (Printf.sprintf "bulk%d" i); vs "filler" |]
  done;
  let p0 = List.hd peers in
  (* Selective query: only one course code. *)
  let query =
    q (atom "ans" [ v "T" ])
      [ P.Peer.atom p0 "course" [ Term.str "c1"; v "T" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  check_i "one answer" 1 (Relalg.Relation.cardinality plan.P.Distributed.answers);
  check_b "distributed cheaper than central" true
    (plan.P.Distributed.distributed_ms < plan.P.Distributed.central_ms);
  (* The chosen site owns the data. *)
  check_b "executed at the data" true
    (List.for_all
       (fun (sp : P.Distributed.site_plan) ->
         sp.P.Distributed.remote_reads = 0)
       plan.P.Distributed.sites)

let test_distributed_answers_match_answer () =
  let catalog, peers = chain_catalog 3 in
  let network = P.Network.create () in
  P.Network.connect network "p0" "p1" ~latency_ms:5.0;
  P.Network.connect network "p1" "p2" ~latency_ms:5.0;
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p0 "course" [ v "X"; v "Y" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  let direct = P.Answer.answer catalog query in
  check_b "same answers" true
    (List.sort compare
       (List.map (fun r -> Array.map Relalg.Value.to_string r)
          (Relalg.Relation.tuples plan.P.Distributed.answers))
    = List.sort compare
        (List.map (fun r -> Array.map Relalg.Value.to_string r)
           (Relalg.Relation.tuples direct.P.Answer.answers)))

let rel_sorted rel =
  Relalg.Relation.tuples rel
  |> List.map (fun r -> Array.to_list (Array.map Relalg.Value.to_string r))
  |> List.sort compare

(* Planning must be pure: with no faults, the traffic counters reflect
   executed transfers only, not candidate-site cost probes. *)
let test_distributed_messages_count_executed_only () =
  let catalog, peers = chain_catalog 4 in
  let network = P.Network.create () in
  List.iteri
    (fun i _ ->
      if i < 3 then
        P.Network.connect network
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "p%d" (i + 1))
          ~latency_ms:10.0)
    peers;
  P.Network.reset_counters network;
  let p0 = List.hd peers in
  let query =
    q (atom "ans" [ v "T" ])
      [ P.Peer.atom p0 "course" [ Term.str "c1"; v "T" ] ]
  in
  let plan = P.Distributed.execute catalog network ~at:"p0" query in
  check_b "complete" true plan.P.Distributed.report.P.Distributed.complete;
  check_i "no retries without faults" 0
    plan.P.Distributed.report.P.Distributed.retries;
  (* Every site plan here reads locally (remote_reads = 0), so the only
     real transfers are the result ships from non-p0 sites. *)
  let expected_ships =
    List.length
      (List.filter
         (fun (sp : P.Distributed.site_plan) ->
           not (String.equal sp.P.Distributed.site "p0"))
         plan.P.Distributed.sites)
  in
  check_b "something actually shipped" true (expected_ships > 0);
  check_i "messages = executed ships only" expected_ships
    (P.Network.messages_sent network)

(* Figure-2 six-university network under a partition: the answer
   degrades to the reachable side and heals back to the full answer. *)
let test_distributed_partitioned_six_universities () =
  let prng = Util.Prng.create 2003 in
  let d = Workload.University.build_delearning prng ~courses_per_peer:2 in
  let catalog = d.Workload.University.catalog in
  let network = d.Workload.University.network in
  let _, stanford = List.hd d.Workload.University.peers in
  let query = Workload.University.course_query stanford in
  let full = P.Distributed.execute catalog network ~at:"stanford" query in
  check_b "fault-free run complete" true
    full.P.Distributed.report.P.Distributed.complete;
  check_b "fault-free matches Answer.answer" true
    (rel_sorted full.P.Distributed.answers
    = rel_sorted (P.Answer.answer catalog query).P.Answer.answers);
  (* Cut {stanford, berkeley, roma} off from {mit, oxford, tsinghua}. *)
  let before = Obs.Metrics.snapshot () in
  P.Network.Fault.partition network [ "stanford"; "berkeley"; "roma" ];
  let part = P.Distributed.execute catalog network ~at:"stanford" query in
  let report = part.P.Distributed.report in
  check_b "partial" true (not report.P.Distributed.complete);
  check_b "dropped rewritings counted" true
    (report.P.Distributed.rewritings_dropped > 0);
  check_b "failed sites named" true (report.P.Distributed.sites_failed <> []);
  check_b "retries were spent" true (report.P.Distributed.retries > 0);
  let after = Obs.Metrics.snapshot () in
  check_b "pdms.distributed.partial nonzero" true
    (Obs.Metrics.counter_value after "pdms.distributed.partial"
     > Obs.Metrics.counter_value before "pdms.distributed.partial");
  check_b "pdms.net.retries nonzero" true
    (Obs.Metrics.counter_value after "pdms.net.retries"
     > Obs.Metrics.counter_value before "pdms.net.retries");
  (* Exactly the reachable side's tuples: titles are prefixed with the
     owning university's name. *)
  let reachable = [ "[stanford]"; "[berkeley]"; "[roma]" ] in
  let rows = rel_sorted part.P.Distributed.answers in
  check_b "only reachable tuples" true
    (rows <> []
    && List.for_all
         (fun row ->
           match row with
           | title :: _ ->
               List.exists
                 (fun p -> String.length title >= String.length p
                           && String.sub title 0 (String.length p) = p)
                 reachable
           | [] -> false)
         rows);
  let expected =
    List.fold_left
      (fun acc (name, n) ->
        if List.mem name [ "stanford"; "berkeley"; "roma" ] then acc + n
        else acc)
      0 d.Workload.University.course_counts
  in
  check_i "reachable cardinality" expected (List.length rows);
  (* Healing restores the full answer. *)
  P.Network.Fault.heal network;
  let healed = P.Distributed.execute catalog network ~at:"stanford" query in
  check_b "healed complete" true
    healed.P.Distributed.report.P.Distributed.complete;
  check_b "healed matches full" true
    (rel_sorted healed.P.Distributed.answers
    = rel_sorted full.P.Distributed.answers)

(* With faults disabled the result-typed path answers exactly what
   Answer.answer does, complete and retry-free. *)
let prop_distributed_no_faults_matches_answer =
  QCheck.Test.make
    ~name:"distributed = answer with faults off, complete (any jobs)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let n = 4 + (seed mod 3) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let names = List.init n (Printf.sprintf "p%d") in
      let network =
        P.Network.of_topology topology ~names ~base_latency_ms:5.0
      in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      let plan = P.Distributed.execute catalog network ~at:"p0" query in
      let direct = P.Answer.answer catalog query in
      rel_sorted plan.P.Distributed.answers
      = rel_sorted direct.P.Answer.answers
      && plan.P.Distributed.report.P.Distributed.complete
      && plan.P.Distributed.report.P.Distributed.retries = 0)

(* The trie walk agrees with evaluating every rewriting on its own
   (Reference.per_rewriting_union) everywhere a union is routed:
   Answer.answer over its rewritings and Distributed.execute over the
   rewritings whose sites survived, faults on and off. *)
let prop_batch_matches_nobatch =
  QCheck.Test.make
    ~name:"batch trie = per-rewriting eval (answer + distributed, faults on/off)"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let n = 4 + (seed mod 3) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3
          ~with_join:true ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      (* Join queries exercise real prefix sharing; plain course queries
         exercise the no-sharing degenerate trie. *)
      let query =
        if seed mod 2 = 0 then Workload.Peers_gen.course_query g ~at:0
        else Workload.Peers_gen.join_query g ~at:0
      in
      let per_rewriting = function
        | [] -> []
        | qs ->
            rel_sorted
              (Reference.per_rewriting_union (P.Catalog.global_db catalog) qs)
      in
      let a = P.Answer.answer catalog query in
      let names = List.init n (Printf.sprintf "p%d") in
      (* Odd seeds run the distributed comparison under a peer fault. *)
      let mk_net () =
        let network =
          P.Network.of_topology topology ~names ~base_latency_ms:5.0
        in
        if seed mod 2 = 1 then
          P.Network.Fault.fail_peer network (Printf.sprintf "p%d" (n - 1));
        network
      in
      let d = P.Distributed.execute catalog (mk_net ()) ~at:"p0" query in
      let surviving =
        List.map (fun sp -> sp.P.Distributed.rewriting) d.P.Distributed.sites
      in
      rel_sorted a.P.Answer.answers
      = per_rewriting a.P.Answer.outcome.P.Reformulate.rewritings
      && rel_sorted d.P.Distributed.answers = per_rewriting surviving
      && (seed mod 2 = 1 || d.P.Distributed.report.P.Distributed.complete))

(* Keyword search degrades with the network: a downed peer's relations
   vanish from the ranking. *)
let test_keyword_skips_down_peer () =
  let catalog, _, _ = two_peer_catalog `Equality in
  let network = P.Network.create () in
  P.Network.connect network "uw" "mit" ~latency_ms:5.0;
  check_b "reachable peer answers" true
    (P.Keyword.search ~network catalog "databases" <> []);
  P.Network.Fault.fail_peer network "mit";
  check_i "down peer's tuples skipped" 0
    (List.length (P.Keyword.search ~network catalog "databases"));
  P.Network.Fault.heal_peer network "mit";
  check_b "heals back" true
    (P.Keyword.search ~network catalog "databases" <> [])

(* ------------------------------------------------------------------ *)
(* Kwindex: the inverted index must be indistinguishable from the
   brute-force scan of Reference.keyword_search — scores bit-identical,
   order and tie-breaks included — for any fault schedule. *)

let prop_indexed_matches_brute =
  QCheck.Test.make
    ~name:"indexed hits = brute hits (bit-identical scores, any jobs, faults)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create (seed + 31) in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 2
      in
      let n = 3 + (seed mod 4) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology
          ~tuples_per_peer:(2 + (seed mod 5))
          ~with_join:(seed mod 2 = 0) ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let network =
        if seed mod 3 = 0 then begin
          let net =
            P.Distributed.network_of_catalog catalog ~latency_ms:1.0
          in
          P.Network.Fault.fail_peer net (Printf.sprintf "p%d" (seed mod n));
          Some net
        end
        else None
      in
      let limit = 1 + (seed mod 7) in
      let query = Workload.Peers_gen.keyword_query g prng in
      List.map hit_key (P.Keyword.search ~limit ?network catalog query)
      = List.map hit_key
          (Reference.keyword_search ~limit ?network catalog query))

let kwindex_builds () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.kwindex.builds"

(* Incremental maintenance: a warm search rebuilds nothing; touching
   one relation reindexes that relation alone. *)
let test_kwindex_incremental () =
  let catalog = P.Catalog.create () in
  let pa = P.Peer.create ~name:"pa" ~schema:[ ("r", [ "x"; "y" ]) ] in
  let pb = P.Peer.create ~name:"pb" ~schema:[ ("s", [ "x"; "y" ]) ] in
  P.Catalog.add_peer catalog pa;
  P.Catalog.add_peer catalog pb;
  let ra = P.Catalog.store_identity catalog pa ~rel:"r" in
  let rb = P.Catalog.store_identity catalog pb ~rel:"s" in
  insert ra [| vs "cse444"; vs "databases" |];
  insert rb [| vs "cse451"; vs "operating systems" |];
  ignore (P.Keyword.search catalog "databases");
  let warm = kwindex_builds () in
  ignore (P.Keyword.search catalog "systems");
  check_i "warm repeat rebuilds nothing" warm (kwindex_builds ());
  let patched () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ())
      "pdms.delta.patched_postings"
  in
  let patched0 = patched () in
  insert ra [| vs "cse452"; vs "distributed systems" |];
  let hits = P.Keyword.search catalog "distributed" in
  check_i "the touched relation patches, no rebuild" warm (kwindex_builds ());
  check_b "postings were patched" true (patched () > patched0);
  check_b "new tuple is searchable" true
    (List.exists
       (fun (h : P.Keyword.hit) ->
         Array.exists
           (fun v -> Relalg.Value.to_string v = "cse452")
           h.P.Keyword.tuple)
       hits)

(* An index entry lives in its relation's derived slot, so dropping the
   relation frees the entry; no store keeps it reachable. *)
let test_kwindex_entry_lifetime () =
  let entry = Weak.create 1 in
  let[@inline never] index () =
    let r = Relalg.Relation.create (Relalg.Schema.make "r" [ "x" ]) in
    insert r [| vs "ephemeral" |];
    Weak.set entry 0 (Some (fst (P.Kwindex.get ~rel_name:"lt.r!" r)))
  in
  index ();
  Gc.full_major ();
  check_b "entry collected with its relation" false (Weak.check entry 0)

(* Domains sharing a relation serialise on the derived-state lock: the
   first get patches each kind once, and every domain is served the
   same values. *)
let test_derived_shared_across_domains () =
  let r = Relalg.Relation.create (Relalg.Schema.make "d" [ "x"; "y" ]) in
  for i = 0 to 39 do
    insert r
      [| vs (Printf.sprintf "k%d" i); vs (Printf.sprintf "v%d" (i mod 7)) |]
  done;
  let rel_name = "dm.d!" in
  ignore (Relalg.Stats.of_relation r);
  ignore (P.Kwindex.get ~rel_name r);
  insert r [| vs "k40"; vs "v0 fresh" |];
  let patches0 = Relalg.Stats.cache_patches ()
  and builds0 = kwindex_builds () in
  let served =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (Relalg.Stats.of_relation r, fst (P.Kwindex.get ~rel_name r))))
    |> List.map Domain.join
  in
  check_i "one stats patch" (patches0 + 1) (Relalg.Stats.cache_patches ());
  check_i "no index build" builds0 (kwindex_builds ());
  let s0, e0 = List.hd served in
  check_b "every domain served the same values" true
    (List.for_all (fun (s, e) -> s == s0 && e == e0) served);
  check_i "patched statistics" 41 s0.Relalg.Stats.cardinality

let delta_fallbacks () =
  Obs.Metrics.counter_value (Obs.Metrics.snapshot ())
    "pdms.delta.rebuild_fallbacks"

(* The delta-patched index must be indistinguishable from rebuilding on
   every change: identical rendered hit lists over a random stream of
   inserts and deletes, with faults on or off.  The
   rebuild run resets the index store before every search, so each
   search indexes every relation from scratch.  The stream stays far
   below a slot queue's bounds, so the incremental run must also never
   fall back to a rebuild. *)
let prop_kwindex_incremental_matches_rebuild =
  QCheck.Test.make
    ~name:"incremental index = rebuilt index under random delta streams"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      (* Both modes rebuild the same world from the seed: same catalog,
         same op stream, same queries — only whether the index store
         survives between searches differs. *)
      let run incremental =
        P.Kwindex.reset ();
        let prng = Util.Prng.create (seed + 77) in
        let kind =
          match seed mod 3 with
          | 0 -> P.Topology.Chain
          | 1 -> P.Topology.Star
          | _ -> P.Topology.Ring
        in
        let n = 3 + (seed mod 3) in
        let topology = P.Topology.generate ~prng kind ~n in
        let g =
          Workload.Peers_gen.generate prng ~topology
            ~tuples_per_peer:(2 + (seed mod 4)) ()
        in
        let catalog = g.Workload.Peers_gen.catalog in
        let db = P.Catalog.global_db catalog in
        let names = List.sort String.compare (Relalg.Database.names db) in
        let network =
          if seed mod 2 = 0 then begin
            let net =
              P.Distributed.network_of_catalog catalog ~latency_ms:1.0
            in
            P.Network.Fault.fail_peer net (Printf.sprintf "p%d" (seed mod n));
            Some net
          end
          else None
        in
        let ops = Util.Prng.create (seed + 1234) in
        let query = Workload.Peers_gen.keyword_query g ops in
        let transcript = ref [] in
        for _ = 0 to 11 do
          let rel =
            Relalg.Database.find db (Util.Prng.pick ops names)
          in
          let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
          (match (Util.Prng.int ops 3, Relalg.Relation.tuples rel) with
          | (0 | 1), _ | _, [] ->
              let row =
                Array.init arity (fun _ ->
                    vs (Printf.sprintf "word%d" (Util.Prng.int ops 40)))
              in
              Relalg.Relation.apply rel (Relalg.Relation.Delta.add row)
          | _, rows ->
              Relalg.Relation.apply rel
                (Relalg.Relation.Delta.remove (Util.Prng.pick ops rows)));
          if not incremental then P.Kwindex.reset ();
          let hits = P.Keyword.search ~limit:5 ?network catalog query in
          transcript :=
            List.rev_append (List.map P.Keyword.render_hit hits) !transcript
        done;
        !transcript
      in
      let f0 = delta_fallbacks () in
      let incr = run true in
      let no_fallbacks = delta_fallbacks () = f0 in
      let rebuilt = run false in
      P.Kwindex.reset ();
      incr = rebuilt && no_fallbacks)

(* Passing the bound on a slot's unread queue forces one honest
   rebuild, counted once in pdms.delta.rebuild_fallbacks; afterwards
   small deltas patch again. *)
let test_kwindex_truncation_fallback () =
  P.Kwindex.reset ();
  let r = Relalg.Relation.create (Relalg.Schema.make "t" [ "x"; "y" ]) in
  insert r [| vs "alpha"; vs "beta" |];
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  let builds0 = kwindex_builds () in
  let f0 = delta_fallbacks () in
  for i = 0 to 599 do
    insert r [| vs (Printf.sprintf "w%d" i); vs "filler" |]
  done;
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  check_i "one full rebuild" (builds0 + 1) (kwindex_builds ());
  check_i "fallback counted" (f0 + 1) (delta_fallbacks ());
  insert r [| vs "gamma"; vs "delta" |];
  ignore (P.Kwindex.get ~rel_name:"t!" r);
  check_i "small delta patches again" (builds0 + 1) (kwindex_builds ());
  P.Kwindex.reset ()

let counter name = Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) name

(* Writes that keep n: most steps insert one row and retract the
   relation's oldest (the update live_mixed makes), with insert-only
   and delete-only steps mixed in.  Every search after the first must
   patch the corpus (df recounted for the touched tokens only) rather
   than merge it, and while n holds the entries re-norm only the slots
   holding a recounted token; hits must still equal the brute-force
   scan bit for bit.  Between searches another reader
   sometimes brings the written entry current, so a corpus patch may
   reach back over several of its patches. *)
let prop_kwindex_n_unchanged_writes =
  QCheck.Test.make
    ~name:"writes keeping n: patched corpus and norms = brute hits"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      P.Kwindex.reset ();
      let prng = Util.Prng.create (seed + 515) in
      let kind =
        match seed mod 3 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | _ -> P.Topology.Mesh 2
      in
      let n = 3 + (seed mod 4) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology
          ~tuples_per_peer:(3 + (seed mod 5))
          ~with_join:(seed mod 2 = 0) ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let db = P.Catalog.global_db catalog in
      let names =
        Array.of_list (List.sort String.compare (Relalg.Database.names db))
      in
      let ops = Util.Prng.create (seed + 4321) in
      let matches () =
        let query = Workload.Peers_gen.keyword_query g ops in
        let limit = 1 + Util.Prng.int ops 8 in
        List.map hit_key (P.Keyword.search ~limit catalog query)
        = List.map hit_key (Reference.keyword_search ~limit catalog query)
      in
      (* New rows reuse values already stored, so a write touches tokens
         that other relations' slots hold too. *)
      let stored_value () =
        let rel = Relalg.Database.find db (Util.Prng.pick_arr ops names) in
        match Relalg.Relation.tuples rel with
        | [] -> vs "empty"
        | rows ->
            let row = Util.Prng.pick ops rows in
            row.(Util.Prng.int ops (Array.length row))
      in
      let ok = ref (matches ()) in
      let merges0 = counter "pdms.kwindex.df_merges" in
      let patches0 = counter "pdms.kwindex.df_patches" in
      for i = 0 to 23 do
        let rel_name = Util.Prng.pick_arr ops names in
        let rel = Relalg.Database.find db rel_name in
        let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
        let fresh () =
          Array.init arity (fun c ->
              if Util.Prng.bool ops then stored_value ()
              else vs (Printf.sprintf "w%d k%d" (Util.Prng.int ops 30) (c + i)))
        in
        let delta =
          match (Util.Prng.int ops 8, Relalg.Relation.tuples rel) with
          | 0, _ | _, [] -> Relalg.Relation.Delta.add (fresh ())
          | 1, oldest :: _ -> Relalg.Relation.Delta.remove oldest
          | _, oldest :: _ ->
              Relalg.Relation.Delta.make ~adds:[ fresh () ] ~dels:[ oldest ] ()
        in
        Relalg.Relation.apply rel delta;
        if Util.Prng.int ops 4 = 0 then ignore (P.Kwindex.get ~rel_name rel);
        if Util.Prng.int ops 5 <> 0 then ok := matches () && !ok
      done;
      P.Kwindex.reset ();
      !ok
      && counter "pdms.kwindex.df_merges" = merges0
      && counter "pdms.kwindex.df_patches" > patches0)

(* A random catalog (three to six peers over a chain, star or Mesh-2
   topology) put through 40 writes that insert one row and retract the
   relation's oldest, the new row reusing stored values half the time.
   [check ~catalog ~db ~names ~ops ~stored_tuple] runs before the first
   write and after every fourth, drawing what it needs from [ops]; the
   stream holds when every check does and the writes tombstoned some
   entry and compacted some entry. *)
let kwindex_write_stream seed check =
  P.Kwindex.reset ();
  let prng = Util.Prng.create (seed + 919) in
  let kind =
    match seed mod 3 with
    | 0 -> P.Topology.Chain
    | 1 -> P.Topology.Star
    | _ -> P.Topology.Mesh 2
  in
  let topology = P.Topology.generate ~prng kind ~n:(3 + (seed mod 4)) in
  let g =
    Workload.Peers_gen.generate prng ~topology
      ~tuples_per_peer:(4 + (seed mod 5))
      ~with_join:(seed mod 2 = 0) ()
  in
  let catalog = g.Workload.Peers_gen.catalog in
  let db = P.Catalog.global_db catalog in
  let names =
    Array.of_list (List.sort String.compare (Relalg.Database.names db))
  in
  let ops = Util.Prng.create (seed + 2718) in
  let stored_tuple () =
    match
      Relalg.Relation.tuples
        (Relalg.Database.find db (Util.Prng.pick_arr ops names))
    with
    | [] -> None
    | rows -> Some (Util.Prng.pick ops rows)
  in
  let saw_tombstone = ref false and saw_compaction = ref false in
  let last_slots = Hashtbl.create 16 in
  let checked () =
    let ok = check ~catalog ~db ~names ~ops ~stored_tuple in
    Array.iter
      (fun rel_name ->
        let e, _ = P.Kwindex.get ~rel_name (Relalg.Database.find db rel_name) in
        let n_slots = e.P.Kwindex.n_slots in
        if n_slots > e.P.Kwindex.doc_count then saw_tombstone := true;
        (match Hashtbl.find_opt last_slots rel_name with
        | Some before when n_slots < before -> saw_compaction := true
        | _ -> ());
        Hashtbl.replace last_slots rel_name n_slots)
      names;
    ok
  in
  let ok = ref (checked ()) in
  for i = 0 to 39 do
    let rel = Relalg.Database.find db (Util.Prng.pick_arr ops names) in
    let fresh =
      Array.init
        (Relalg.Schema.arity (Relalg.Relation.schema rel))
        (fun c ->
          match stored_tuple () with
          | Some row when Util.Prng.bool ops -> row.(c mod Array.length row)
          | _ -> vs (Printf.sprintf "w%d k%d" (Util.Prng.int ops 30) i))
    in
    Relalg.Relation.apply rel
      (match Relalg.Relation.tuples rel with
      | [] -> Relalg.Relation.Delta.add fresh
      | oldest :: _ ->
          Relalg.Relation.Delta.make ~adds:[ fresh ] ~dels:[ oldest ] ());
    if i mod 4 = 3 then ok := checked () && !ok
  done;
  P.Kwindex.reset ();
  !ok && !saw_tombstone && !saw_compaction

(* Kwindex.probe against a per-slot reference, through the write
   stream above: every entry's candidates are its live slots sharing a
   query token, in ascending order; each candidate scores bit for bit
   what the brute-force scan gives its tuple; an entry holding no query
   token returns no candidates and no score array; the bound dominates
   every candidate.  Unlike the hit-level property, this sees
   candidates that rank below any top-k. *)
let prop_probe_matches_slot_reference =
  QCheck.Test.make ~name:"probe = per-slot reference" ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      kwindex_write_stream seed
      @@ fun ~catalog:_ ~db ~names ~ops ~stored_tuple ->
      let entries =
        Array.to_list names
        |> List.map (fun rel_name ->
               fst (P.Kwindex.get ~rel_name (Relalg.Database.find db rel_name)))
      in
      (* A token of some stored tuple's text, stemmed as a search stems
         it; no relation holds "qzxjv". *)
      let toks =
        List.init
          (1 + Util.Prng.int ops 4)
          (fun _ ->
            match Option.map P.Kwindex.tuple_tokens (stored_tuple ()) with
            | Some (_ :: _ as toks) -> Util.Prng.pick ops toks
            | _ -> "empty")
        @ [ "qzxjv" ]
      in
      let stamp, corpus = P.Kwindex.corpus entries in
      let query_vec = Util.Tfidf.vectorize corpus toks in
      let scanned = Hashtbl.create 64 in
      List.iter
        (fun (e, id, s) -> Hashtbl.replace scanned (e.P.Kwindex.rel_name, id) s)
        (Reference.keyword_slot_scores entries toks);
      List.for_all
        (fun e ->
          let n_slots = e.P.Kwindex.n_slots in
          let pr = P.Kwindex.probe e ~stamp corpus query_vec in
          let expected =
            List.filter
              (fun id ->
                e.P.Kwindex.live.(id)
                && List.exists
                     (fun (tok, _) -> List.mem tok toks)
                     (P.Kwindex.slot_tokens e id))
              (List.init n_slots Fun.id)
          in
          Array.to_list pr.P.Kwindex.candidates = expected
          && (expected <> [] || pr.P.Kwindex.scores = [||])
          && Array.for_all
               (fun id ->
                 let score = pr.P.Kwindex.scores.(id) in
                 Option.map Int64.bits_of_float
                   (Hashtbl.find_opt scanned (e.P.Kwindex.rel_name, id))
                 = Some (Int64.bits_of_float score)
                 && score <= pr.P.Kwindex.bound)
               pr.P.Kwindex.candidates)
        entries)

(* Keyword.search scores a relation only when its bound beats the
   heap's floor, into one buffer per search; Reference.keyword_probe_every
   probes every relation into its own array first and then ranks.
   Through the write stream above, queries of one to four words from
   stored tuples (sometimes two from one tuple, so postings overlap)
   plus a word no relation holds, at limits 1-12, must give the same
   hits bit for bit and the same [pdms.kwindex.candidates] and
   [skipped_by_bound] counts — a skipped relation counts the union of
   its postings, not their total length. *)
let prop_bound_first_matches_probe_every =
  QCheck.Test.make ~name:"bound-first ranking = probe-every-relation ranking"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      kwindex_write_stream seed
      @@ fun ~catalog ~db:_ ~names:_ ~ops ~stored_tuple ->
      let tuple_words () =
        match stored_tuple () with
        | None -> [ "empty" ]
        | Some row -> (
            match
              List.concat_map
                (fun v -> Util.Tokenize.words (Relalg.Value.to_string v))
                (Array.to_list row)
            with
            | [] -> [ "empty" ]
            | words -> words)
      in
      let rec draw k acc =
        if k <= 0 then acc
        else
          let words = tuple_words () in
          let take = if k >= 2 && Util.Prng.bool ops then 2 else 1 in
          draw (k - take)
            (List.init take (fun _ -> Util.Prng.pick ops words) @ acc)
      in
      List.for_all
        (fun () ->
          let query =
            String.concat " " (draw (1 + Util.Prng.int ops 4) [] @ [ "qzxjv" ])
          in
          let limit = 1 + Util.Prng.int ops 12 in
          let candidates0 = counter "pdms.kwindex.candidates"
          and skipped0 = counter "pdms.kwindex.skipped_by_bound" in
          let hits = P.Keyword.search ~limit catalog query in
          let candidates = counter "pdms.kwindex.candidates" - candidates0
          and skipped = counter "pdms.kwindex.skipped_by_bound" - skipped0 in
          let ref_hits, ref_candidates, ref_skipped =
            Reference.keyword_probe_every ~limit catalog query
          in
          List.map hit_key hits = List.map hit_key ref_hits
          && candidates = ref_candidates && skipped = ref_skipped)
        [ (); (); () ])

(* Bounded tombstones: 400 insert-and-retract rounds through one small
   relation.  Compaction keeps dead slots within a quarter of the live
   ones and drops dead tuples, without counting as a rebuild, and the
   compacted entry still ranks exactly as the brute-force scan. *)
let test_kwindex_compaction_bound () =
  P.Kwindex.reset ();
  let catalog = P.Catalog.create () in
  let pk = P.Peer.create ~name:"pk" ~schema:[ ("r", [ "x"; "y" ]) ] in
  P.Catalog.add_peer catalog pk;
  let r = P.Catalog.store_identity catalog pk ~rel:"r" in
  let rel_name = P.Peer.stored_pred pk "r" in
  let row i =
    [| vs (Printf.sprintf "cse%d" i);
       vs (Printf.sprintf "topic%d systems" (i mod 5)) |]
  in
  for i = 0 to 7 do
    insert r (row i)
  done;
  ignore (P.Keyword.search catalog "systems");
  let builds0 = kwindex_builds () and fallbacks0 = delta_fallbacks () in
  for i = 8 to 407 do
    let oldest = List.hd (Relalg.Relation.tuples r) in
    Relalg.Relation.apply r
      (Relalg.Relation.Delta.make ~adds:[ row i ] ~dels:[ oldest ] ());
    let e, _ = P.Kwindex.get ~rel_name r in
    let live = e.P.Kwindex.doc_count in
    if e.P.Kwindex.n_slots > live + (live / 4) + 1 then
      Alcotest.failf "round %d: %d slots for %d live" i e.P.Kwindex.n_slots
        live;
    Array.iteri
      (fun slot t ->
        let live_slot = slot < e.P.Kwindex.n_slots && e.P.Kwindex.live.(slot) in
        if t <> [||] && not live_slot then
          Alcotest.failf "round %d: slot %d keeps a dead tuple" i slot)
      e.P.Kwindex.tuples;
    let query = Printf.sprintf "topic%d cse%d systems" (i mod 5) (i - 3) in
    if
      List.map hit_key (P.Keyword.search ~limit:5 catalog query)
      <> List.map hit_key (Reference.keyword_search ~limit:5 catalog query)
    then Alcotest.failf "round %d: hits differ from the brute scan" i
  done;
  check_i "compaction is not a rebuild" builds0 (kwindex_builds ());
  check_i "nor a fallback" fallbacks0 (delta_fallbacks ());
  P.Kwindex.reset ()

(* Both kinds of derived state sharing one relation's slots — planner
   statistics and the keyword index — serve at every read what a fresh
   build computes, whatever ran since the last read: inserts
   (duplicates included), deletes of present and absent rows,
   delete-then-reinsert, mixed deltas, per-kind resets and clears, and
   floods up to or past a queue's bounds, of 512 or 514 one-row deltas
   or of two 4,096- or 4,097-row ones.  A kind rebuilds only on its
   first get, its own reset, a clear or a flood that dropped its slot,
   so a reset of one kind leaves the other warm; each slot a clear or a
   flood dropped counts one fallback. *)
let prop_derived_patch_equals_rebuild =
  let module R = Relalg.Relation in
  QCheck.Test.make ~name:"derived state: patch = rebuild for every kind"
    ~count:100
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(
         list_size (int_range 1 60) (pair (int_bound 13) (int_bound 7))))
    (fun steps ->
      let r = R.create (Relalg.Schema.make "d" [ "x"; "y" ]) in
      let rel_name = "pr.d!" in
      let row a =
        [| vs (Printf.sprintf "w%d" a);
           vs (Printf.sprintf "t%d shared" (a mod 3)) |]
      in
      let stats_builds = ref (Relalg.Stats.cache_misses ())
      and kw_builds = ref (kwindex_builds ()) in
      let f0 = delta_fallbacks () and fallbacks = ref 0 in
      (* Per kind, [Some (deltas, rows)] queued on its live slot, or
         [None] when it has none: never read, reset, cleared or
         dropped. *)
      let stats_q = ref None and kw_q = ref None in
      let drop q =
        if !q <> None then incr fallbacks;
        q := None
      in
      let enqueue size q =
        match !q with
        | Some (n, rows) when n = 512 || rows + size > 8192 -> drop q
        | Some (n, rows) -> q := Some (n + 1, rows + size)
        | None -> ()
      in
      let apply d =
        let version = R.version r and card = R.cardinality r in
        R.apply r d;
        if R.version r <> version then begin
          (* Its adds and the dels that removed a row. *)
          let adds = List.length (R.Delta.adds d) in
          let size = card + (2 * adds) - R.cardinality r in
          enqueue size stats_q;
          enqueue size kw_q
        end
      in
      let live_docs e =
        List.filter_map
          (fun id ->
            if e.P.Kwindex.live.(id) then
              Some (e.P.Kwindex.tuples.(id), P.Kwindex.slot_tokens e id)
            else None)
          (List.init e.P.Kwindex.n_slots Fun.id)
      in
      let posting_lens e =
        List.sort compare
          (Hashtbl.fold
             (fun tok p acc -> (tok, p.P.Kwindex.len) :: acc)
             e.P.Kwindex.postings [])
      in
      let served_equals_fresh () =
        let s = Relalg.Stats.of_relation r in
        if !stats_q = None then incr stats_builds;
        let e, _ = P.Kwindex.get ~rel_name r in
        if !kw_q = None then incr kw_builds;
        stats_q := Some (0, 0);
        kw_q := Some (0, 0);
        let fresh, _ = P.Kwindex.get ~rel_name (R.copy r) in
        (* A copy has no slots, so the reference is a counted build. *)
        incr kw_builds;
        s = Reference.stats_scan r
        && live_docs e = live_docs fresh
        && e.P.Kwindex.doc_count = fresh.P.Kwindex.doc_count
        && posting_lens e = posting_lens fresh
        && Relalg.Stats.cache_misses () = !stats_builds
        && kwindex_builds () = !kw_builds
        && delta_fallbacks () - f0 = !fallbacks
      in
      let flood =
        List.init 4097 (fun i -> [| vs (Printf.sprintf "f%d" i); vs "flood" |])
      in
      let step op a =
        match op with
        | 0 | 1 | 2 -> apply (R.Delta.add (row a))
        | 3 | 4 -> apply (R.Delta.remove (row a))
        | 5 -> apply (R.Delta.make ~dels:[ row a ] ~adds:[ row a ] ())
        | 6 ->
            apply
              (R.Delta.make ~dels:[ row a; row (a + 1) ]
                 ~adds:[ row (a + 1); row (a + 2) ] ())
        | 7 ->
            Relalg.Stats.reset_cache ();
            stats_builds := 0;
            stats_q := None
        | 8 ->
            P.Kwindex.reset ();
            kw_q := None
        | 9 when a < 2 ->
            R.clear r;
            drop stats_q;
            drop kw_q
        | 10 when a < 2 ->
            for _ = 1 to 256 + a do
              apply (R.Delta.add (row 1));
              apply (R.Delta.remove (row 1))
            done
        | 11 when a < 2 ->
            let rows = List.filteri (fun i _ -> i < 4096 + a) flood in
            apply (R.Delta.of_rows rows);
            apply (R.Delta.removes rows)
        | _ -> apply (R.Delta.add (row a))
      in
      (* Ops 12 and 13 read, and so does the end of every run. *)
      List.for_all
        (fun (op, a) ->
          if op >= 12 then served_equals_fresh ()
          else begin
            step op a;
            true
          end)
        steps
      && served_equals_fresh ())

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_and_invalidate () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create catalog () in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  let r1 = P.Cache.answer cache query in
  check_i "first is a miss" 1 (P.Cache.misses cache);
  (* Alpha-equivalent query hits. *)
  let query' = q (atom "ans" [ v "A"; v "B" ]) [ P.Peer.atom uw "course" [ v "A"; v "B" ] ] in
  let r2 = P.Cache.answer cache query' in
  check_i "second is a hit" 1 (P.Cache.hits cache);
  check_b "same answers" true
    (P.Answer.answers_list r1 = P.Answer.answers_list r2);
  (* An updategram on the read relation invalidates the entry... *)
  let stored_pred = P.Peer.stored_pred (P.Catalog.peer catalog "mit") "subject" in
  check_i "one entry dropped" 1
    (P.Cache.invalidate cache (P.Updategram.make ~rel:stored_pred ()));
  check_i "cache empty" 0 (P.Cache.entries cache);
  (* ... and an unrelated one does not. *)
  ignore (P.Cache.answer cache query);
  check_i "nothing dropped" 0
    (P.Cache.invalidate cache (P.Updategram.make ~rel:"unrelated!" ()))

let test_cache_reflects_updates_after_invalidation () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let cache = P.Cache.create catalog () in
  let query = q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ] in
  check_i "before" 2
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers);
  (* New data arrives at MIT; the stale cache would miss it. *)
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let stored = Relalg.Database.find (P.Peer.stored_db mit) stored_pred in
  insert stored [| vs "6.001"; vs "sicp" |];
  check_i "stale while cached" 2
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers);
  ignore (P.Cache.invalidate cache (P.Updategram.make ~rel:stored_pred ()));
  check_i "fresh after invalidation" 3
    (Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers)

(* A mapping added after a query was cached reaches rows the cached
   answer lacks: the entry must not be served as it stands. *)
let test_cache_follows_catalog_changes () =
  let catalog =
    P.Pdms_file.parse_exn
      "peer uw\nrelation course(code, title)\nstore course\n\
       row course: cse444 | databases\n\
       peer mit\nrelation subject(id, name)\nstore subject\n\
       row subject: 'x6.033' | systems"
  in
  let cache = P.Cache.create catalog () in
  let query = Cq.Parser.parse_query_exn "ans(C, T) :- uw.course(C, T)" in
  let cached () =
    Relalg.Relation.cardinality (P.Cache.answer cache query).P.Answer.answers
  in
  check_i "cached with uw's row" 1 (cached ());
  check_i "a hit while nothing changes" 1 (cached ());
  check_i "one hit" 1 (P.Cache.hits cache);
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.definitional
          (Cq.Parser.parse_query_exn "uw.course(C, T) :- mit.subject(C, T)")));
  check_i "the new mapping's row too" 2 (cached ());
  check_i "= answering afresh" 2
    (Relalg.Relation.cardinality (P.Answer.answer catalog query).P.Answer.answers);
  check_i "answered as a miss" 2 (P.Cache.misses cache);
  check_i "the stale entry replaced" 1 (P.Cache.entries cache);
  (* A data update leaves the catalog's version, and so the entry,
     alone. *)
  let version = P.Catalog.version catalog in
  P.Updategram.apply (P.Catalog.global_db catalog)
    (P.Updategram.make ~rel:"uw.course!" ~inserts:[ [| vs "cse544"; vs "dbms" |] ] ());
  check_i "version unmoved by data" version (P.Catalog.version catalog);
  check_i "still a hit" 2 (cached ());
  check_i "two hits" 2 (P.Cache.hits cache)

let test_cache_lru_eviction () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let mk pred =
    q (atom pred [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  ignore (P.Cache.answer cache (mk "q1"));
  ignore (P.Cache.answer cache (mk "q2"));
  ignore (P.Cache.answer cache (mk "q3"));
  check_i "capacity respected" 2 (P.Cache.entries cache);
  (* q1 was evicted: asking again misses. *)
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "four misses" 4 (P.Cache.misses cache)

(* Eviction must be strictly least-recently-used: touching an entry via
   a hit protects it from the next eviction. *)
let test_cache_lru_touch_protects () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let mk pred =
    q (atom pred [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  ignore (P.Cache.answer cache (mk "q1"));
  ignore (P.Cache.answer cache (mk "q2"));
  (* Touch q1, making q2 the LRU; inserting q3 must evict q2. *)
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "touch is a hit" 1 (P.Cache.hits cache);
  ignore (P.Cache.answer cache (mk "q3"));
  ignore (P.Cache.answer cache (mk "q1"));
  check_i "q1 survived" 2 (P.Cache.hits cache);
  ignore (P.Cache.answer cache (mk "q2"));
  check_i "q2 was the victim" 4 (P.Cache.misses cache)

(* The cache agrees with an executable reference model: an LRU list of
   bounded length. Checks hit/miss prediction and entry count after
   every access. *)
let prop_cache_lru_reference_model =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:20
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 30) (int_bound 5))
       ~print:(fun l -> String.concat "," (List.map string_of_int l)))
    (fun accesses ->
      let catalog, uw, _ = two_peer_catalog `Equality in
      let capacity = 3 in
      let cache = P.Cache.create ~capacity catalog () in
      let mk i =
        q
          (atom (Printf.sprintf "q%d" i) [ v "X"; v "Y" ])
          [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
      in
      let model = ref [] in
      List.for_all
        (fun i ->
          let hits0 = P.Cache.hits cache and misses0 = P.Cache.misses cache in
          ignore (P.Cache.answer cache (mk i));
          let expected_hit = List.mem i !model in
          model := i :: List.filter (fun j -> j <> i) !model;
          if List.length !model > capacity then
            model := List.filteri (fun k _ -> k < capacity) !model;
          (if expected_hit then
             P.Cache.hits cache = hits0 + 1 && P.Cache.misses cache = misses0
           else
             P.Cache.misses cache = misses0 + 1 && P.Cache.hits cache = hits0)
          && P.Cache.entries cache = List.length !model)
        accesses)

(* Invalidation removes exactly the entries whose rewritings read the
   updated predicate: independent peers, one entry each. *)
let test_cache_invalidate_exact () =
  let catalog = P.Catalog.create () in
  let peers =
    List.init 4 (fun i ->
        let p =
          P.Peer.create
            ~name:(Printf.sprintf "c%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        insert stored
          [| vs (Printf.sprintf "c%d" i); vs "title" |];
        p)
  in
  let query_of p =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom p "course" [ v "X"; v "Y" ] ]
  in
  let cache = P.Cache.create catalog () in
  List.iter (fun p -> ignore (P.Cache.answer cache (query_of p))) peers;
  check_i "one entry per peer" 4 (P.Cache.entries cache);
  let target = P.Peer.stored_pred (List.nth peers 2) "course" in
  check_i "exactly one dropped" 1
    (P.Cache.invalidate cache (P.Updategram.make ~rel:target ()));
  check_i "three remain" 3 (P.Cache.entries cache);
  (* The survivors are precisely the other peers' entries: they hit. *)
  let hits0 = P.Cache.hits cache in
  List.iteri
    (fun i p -> if i <> 2 then ignore (P.Cache.answer cache (query_of p)))
    peers;
  check_i "others still cached" (hits0 + 3) (P.Cache.hits cache)

(* The invalidation probe keeps an entry when no rewriting atom over the
   touched relation unifies with any changed tuple, and drops the rest;
   an empty updategram has nothing to probe and drops every reader. *)
let test_cache_delta_probe () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let stored = P.Peer.stored_pred mit "subject" in
  let pinned =
    q (atom "ans" [ v "Y" ])
      [ P.Peer.atom uw "course" [ Term.Const (vs "6.033"); v "Y" ] ]
  in
  let broad =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let kept () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pdms.delta.cache_kept"
  in
  let cache = P.Cache.create catalog () in
  let fill () =
    ignore (P.Cache.answer cache pinned);
    ignore (P.Cache.answer cache broad);
    check_i "two entries cached" 2 (P.Cache.entries cache)
  in
  fill ();
  let k0 = kept () in
  let u =
    P.Updategram.make ~rel:stored ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ()
  in
  check_i "only the unifying reader drops" 1 (P.Cache.invalidate cache u);
  check_i "pinned entry survives" 1 (P.Cache.entries cache);
  check_b "survivor counted in pdms.delta.cache_kept" true (kept () > k0);
  check_i "a tuple matching the constant takes the survivor" 1
    (P.Cache.invalidate cache
       (P.Updategram.make ~rel:stored
          ~inserts:[ [| vs "6.033"; vs "recitation" |] ]
          ()));
  check_i "cache drained" 0 (P.Cache.entries cache);
  fill ();
  check_i "an empty updategram drops every reader" 2
    (P.Cache.invalidate cache (P.Updategram.make ~rel:stored ()));
  (* A repeated variable binds one value: an entry reading course(X, X)
     survives a changed row whose two fields differ, and a row whose
     fields agree takes it. *)
  let diagonal =
    q (atom "ans" [ v "X" ]) [ P.Peer.atom uw "course" [ v "X"; v "X" ] ]
  in
  ignore (P.Cache.answer cache diagonal);
  check_i "diagonal entry cached" 1 (P.Cache.entries cache);
  let k1 = kept () in
  let inserting row = P.Updategram.make ~rel:stored ~inserts:[ row ] () in
  check_i "differing fields keep it" 0
    (P.Cache.invalidate cache (inserting [| vs "6.001"; vs "sicp" |]));
  check_i "diagonal entry survives" 1 (P.Cache.entries cache);
  check_b "kept in pdms.delta.cache_kept" true (kept () > k1);
  check_i "agreeing fields take it" 1
    (P.Cache.invalidate cache (inserting [| vs "6.002"; vs "6.002" |]))

(* When every mapping is an inclusion with single-atom sides, the PDMS
   semantics coincides with a datalog program; the reformulation answers
   must match naive bottom-up evaluation exactly. *)
let test_datalog_reference_agreement () =
  let prng = Util.Prng.create 123 in
  let n = 5 in
  let catalog = P.Catalog.create () in
  let peers =
    Array.init n (fun i ->
        let p =
          P.Peer.create ~name:(Printf.sprintf "d%d" i)
            ~schema:[ ("course", [ "code"; "title" ]) ]
        in
        P.Catalog.add_peer catalog p;
        let stored = P.Catalog.store_identity catalog p ~rel:"course" in
        for k = 1 to 3 do
          insert stored
            [| vs (Printf.sprintf "c%d_%d" i k);
               vs (Printf.sprintf "t%d" (Util.Prng.int prng 4)) |]
        done;
        p)
  in
  (* Random acyclic inclusions: data flows from higher to lower ids. *)
  let rules = ref [] in
  for i = 1 to n - 1 do
    let target = Util.Prng.int prng i in
    let args = [ v "X"; v "Y" ] in
    let lhs = q (atom "m" args) [ P.Peer.atom peers.(i) "course" args ] in
    let rhs = q (atom "m" args) [ P.Peer.atom peers.(target) "course" args ] in
    ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.inclusion ~lhs ~rhs));
    (* The equivalent datalog rule: target.course :- source.course. *)
    rules :=
      q (P.Peer.atom peers.(target) "course" args)
        [ P.Peer.atom peers.(i) "course" args ]
      :: !rules
  done;
  (* Plus: each peer relation holds its own stored data. *)
  Array.iter
    (fun p ->
      rules :=
        q (P.Peer.atom p "course" [ v "X"; v "Y" ])
          [ P.Peer.stored_atom p "course" [ v "X"; v "Y" ] ]
        :: !rules)
    peers;
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom peers.(0) "course" [ v "X"; v "Y" ] ]
  in
  let via_pdms = P.Answer.answers_list (P.Answer.answer catalog query) in
  let reference =
    Oracle.Datalog.query (P.Catalog.global_db catalog) !rules query
    |> Relalg.Relation.tuples
    |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
    |> List.sort compare
  in
  check_b "pdms = datalog reference" true (via_pdms = reference)

(* Certain answers on random catalogs. Every mapping here is free of
   existential variables, so the PDMS semantics is a datalog program:
   each stored relation feeds its peer relation, an inclusion gives one
   rule per right-hand-side atom with the left-hand body as its body, an
   equality gives rules both ways, and a definitional mapping is a rule
   as it stands. Answer.answer, a fault-free Distributed.execute posed at
   the query's peer, and Cache.answer (a miss, then a hit) must all
   return exactly the datalog answers. Half the catalogs carry one GLAV
   inclusion whose right-hand side joins two atoms. *)
let random_catalog prng =
  let n = Util.Prng.int_in prng 3 7 in
  let kind =
    Util.Prng.pick prng
      [ P.Topology.Mesh 1; P.Topology.Mesh 2; P.Topology.Chain; P.Topology.Binary_tree ]
  in
  let topology = P.Topology.generate ~prng kind ~n in
  let catalog = P.Catalog.create () in
  let schema = [ ("course", [ "code"; "title" ]); ("instr", [ "code"; "person" ]) ] in
  let peers =
    Array.init n (fun i ->
        let p = P.Peer.create ~name:(Printf.sprintf "o%d" i) ~schema in
        P.Catalog.add_peer catalog p;
        p)
  in
  let rules = ref [] in
  let rule head body = rules := q head body :: !rules in
  let value prefix k = vs (Printf.sprintf "%s%d" prefix (Util.Prng.int prng k)) in
  Array.iter
    (fun p ->
      List.iter
        (fun (rel, _) ->
          if Util.Prng.bernoulli prng 0.6 then begin
            let stored = P.Catalog.store_identity catalog p ~rel in
            for _ = 1 to Util.Prng.int prng 4 do
              insert stored
                [| value "c" 4; (if rel = "course" then value "t" 3 else value "p" 3) |]
            done;
            rule (P.Peer.atom p rel [ v "X"; v "Y" ])
              [ P.Peer.stored_atom p rel [ v "X"; v "Y" ] ]
          end)
        schema)
    peers;
  let xy = [ v "X"; v "Y" ] in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun (rel, _) ->
          let src, dst =
            if Util.Prng.bool prng then (peers.(a), peers.(b)) else (peers.(b), peers.(a))
          in
          let side p = q (atom "m" xy) [ P.Peer.atom p rel xy ] in
          let add m = ignore (P.Catalog.add_mapping catalog m) in
          match Util.Prng.int prng 3 with
          | 0 ->
              add (P.Peer_mapping.inclusion ~lhs:(side src) ~rhs:(side dst));
              rule (P.Peer.atom dst rel xy) [ P.Peer.atom src rel xy ]
          | 1 ->
              add (P.Peer_mapping.equality ~lhs:(side src) ~rhs:(side dst));
              rule (P.Peer.atom dst rel xy) [ P.Peer.atom src rel xy ];
              rule (P.Peer.atom src rel xy) [ P.Peer.atom dst rel xy ]
          | _ ->
              let r = q (P.Peer.atom dst rel xy) [ P.Peer.atom src rel xy ] in
              add (P.Peer_mapping.definitional r);
              rules := r :: !rules)
        schema)
    topology.P.Topology.edges;
  if Util.Prng.bool prng then begin
    let a = Util.Prng.int prng n in
    let b = (a + 1 + Util.Prng.int prng (n - 1)) mod n in
    let ctp = [ v "C"; v "T"; v "P" ] in
    let join p = [ P.Peer.atom p "course" [ v "C"; v "T" ]; P.Peer.atom p "instr" [ v "C"; v "P" ] ] in
    let lhs = q (atom "m" ctp) (join peers.(a)) in
    let rhs = q (atom "m" ctp) (join peers.(b)) in
    ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.inclusion ~lhs ~rhs));
    List.iter (fun head -> rule head (join peers.(a))) (join peers.(b))
  end;
  (catalog, peers, !rules)

let oracle_queries prng peer =
  let course a = P.Peer.atom peer "course" a and instr a = P.Peer.atom peer "instr" a in
  let c = v "C" and t = v "T" and p = v "P" and d = v "D" in
  let person = Term.Const (vs (Printf.sprintf "p%d" (Util.Prng.int prng 3))) in
  [ ("join", q (atom "ans" [ t; p ]) [ course [ c; t ]; instr [ c; p ] ]);
    ("join with a constant", q (atom "ans" [ t ]) [ course [ c; t ]; instr [ c; person ] ]);
    ( "three-atom chain",
      q (atom "ans" [ t; d ]) [ course [ c; t ]; instr [ c; p ]; instr [ d; p ] ] );
    ("cross product", q (atom "ans" [ t; p ]) [ course [ c; t ]; instr [ d; p ] ]);
    (* A goal sharing no variable, and a head repeating a variable
       beside a constant. *)
    ("boolean goal", q (atom "ans" [ t ]) [ course [ c; t ]; instr [ d; person ] ]);
    ( "head with a repeat and a constant",
      q (atom "ans" [ t; t; Term.Const (vs "k") ]) [ course [ c; t ]; instr [ c; p ] ] ) ]

let prop_certain_answers =
  QCheck.Test.make ~name:"certain answers = datalog on random catalogs" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let catalog, peers, rules = random_catalog prng in
      let peer = Util.Prng.pick_arr prng peers in
      let db = Oracle.Datalog.eval (P.Catalog.global_db catalog) rules in
      let network = P.Distributed.network_of_catalog catalog ~latency_ms:5. in
      let cache = P.Cache.create catalog () in
      List.for_all
        (fun (name, query) ->
          let expected = rel_sorted (Oracle.Nested_loop.run db query) in
          let answer = P.Answer.answer catalog query in
          let plan = P.Distributed.execute catalog network ~at:(P.Peer.name peer) query in
          let miss = (P.Cache.answer cache query).P.Answer.answers in
          let hits = P.Cache.hits cache in
          let hit = (P.Cache.answer cache query).P.Answer.answers in
          let agree what rows =
            rows = expected
            || QCheck.Test.fail_reportf "%s: %s gives %d rows, datalog %d, for %s on\n%s"
                 name what (List.length rows) (List.length expected)
                 (Query.to_string query) (P.Pdms_file.render catalog)
          in
          agree "Answer.answer" (rel_sorted answer.P.Answer.answers)
          && agree "Distributed.execute" (rel_sorted plan.P.Distributed.answers)
          && plan.P.Distributed.report.P.Distributed.complete
          && agree "Cache.answer (miss)" (rel_sorted miss)
          && P.Cache.hits cache = hits + 1
          && agree "Cache.answer (hit)" (rel_sorted hit))
        (oracle_queries prng peer))

(* ------------------------------------------------------------------ *)
(* PDMS file format *)

let pdms_text = {file|
# two universities, one equality mapping
peer uw
relation course(code, title)

peer mit
relation subject(id, name)
store subject
row subject: 6.033 | systems
row subject: 6.830 | databases

mapping equality
lhs m(C, T) :- mit.subject(C, T)
rhs m(C, T) :- uw.course(C, T)
|file}

let test_pdms_file_parse_and_answer () =
  let catalog = P.Pdms_file.parse_exn pdms_text in
  check_i "two peers" 2 (List.length (P.Catalog.peers catalog));
  check_i "one mapping" 1 (P.Catalog.mapping_count catalog);
  let query = Cq.Parser.parse_query_exn "ans(C, T) :- uw.course(C, T)" in
  let result = P.Answer.answer catalog query in
  check_i "answers flow" 2 (Relalg.Relation.cardinality result.P.Answer.answers)

let test_pdms_file_roundtrip () =
  let catalog = P.Pdms_file.parse_exn pdms_text in
  let rendered = P.Pdms_file.render catalog in
  let catalog' = P.Pdms_file.parse_exn rendered in
  check_i "peers survive" 2 (List.length (P.Catalog.peers catalog'));
  check_i "mappings survive" 1 (P.Catalog.mapping_count catalog');
  let query = Cq.Parser.parse_query_exn "ans(C, T) :- uw.course(C, T)" in
  check_b "same answers" true
    (P.Answer.answers_list (P.Answer.answer catalog query)
    = P.Answer.answers_list (P.Answer.answer catalog' query))

let prop_pdms_file_roundtrip =
  QCheck.Test.make ~name:"pdms_file render/parse preserves answers" ~count:40
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let topology = P.Topology.generate P.Topology.Chain ~n:4 in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:2 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let catalog' = P.Pdms_file.parse_exn (P.Pdms_file.render catalog) in
      let query = Workload.Peers_gen.course_query g ~at:0 in
      P.Answer.answers_list (P.Answer.answer catalog query)
      = P.Answer.answers_list (P.Answer.answer catalog' query))

(* Field-level inverse: parse_value (render_value v) = v for every
   value the format can express (everything but Null, which has no row
   syntax; floats round-trip since render keeps a decimal point). *)
let gen_roundtrippable_value =
  QCheck.Gen.(
    let tricky_string =
      oneof
        [ (* numeric- and boolean-looking strings must come back Str *)
          oneofl [ "42"; "-7"; "6.830"; "1e3"; "true"; "false"; "0x1f" ];
          map string_of_int int;
          (* pipes, whitespace, quote-wrapping *)
          oneofl
            [ "a | b"; " padded "; "\ttab"; "trailing "; "'quoted'"; "''";
              "mid'quote"; "'"; "null" ];
          (* line breaks and the backslash that escapes them *)
          oneofl [ "line1\nline2"; "\r\n"; "cr\rhere"; "a\\nb"; "ends\\" ];
          string_size
            ~gen:(frequency [ (8, char_range ' ' '~'); (1, oneofl [ '\n'; '\r' ]) ])
            (int_bound 15) ]
    in
    oneof
      [ map (fun b -> Relalg.Value.Bool b) bool;
        map (fun i -> Relalg.Value.Int i) int;
        map (fun f -> Relalg.Value.Float f) (float_bound_inclusive 1e9);
        map (fun i -> Relalg.Value.Float (float_of_int i)) (int_bound 1000);
        map (fun s -> Relalg.Value.Str s) tricky_string ])

let prop_pdms_value_roundtrip =
  QCheck.Test.make ~name:"pdms_file value render/parse inverse" ~count:1000
    (QCheck.make gen_roundtrippable_value
       ~print:(fun v -> P.Pdms_file.render_value v))
    (fun v ->
      let rendered = P.Pdms_file.render_value v in
      (* The format is line-oriented: a value must stay on its row. *)
      (not (String.contains rendered '\n' || String.contains rendered '\r'))
      && Relalg.Value.equal (P.Pdms_file.parse_value rendered) v)

(* Catalog-level: rows whose values used to be mangled (numeric-looking
   course codes, pipes, padding) must survive render -> parse. *)
let test_pdms_file_tricky_rows () =
  let catalog = P.Catalog.create () in
  let uw = P.Peer.create ~name:"uw" ~schema:[ ("course", [ "code"; "title" ]) ] in
  P.Catalog.add_peer catalog uw;
  let stored = P.Catalog.store_identity catalog uw ~rel:"course" in
  let rows =
    [ [| vs "6.830"; vs "databases" |];
      [| vs "42"; vs "meaning | of life" |];
      [| vs " padded "; vs "true" |];
      [| vs "'already quoted'"; Relalg.Value.Float 2.0 |];
      [| Relalg.Value.Int 7; Relalg.Value.Bool false |] ]
  in
  List.iter (insert stored) rows;
  let rendered = P.Pdms_file.render catalog in
  let catalog' = P.Pdms_file.parse_exn rendered in
  let stored' =
    Relalg.Database.find (P.Catalog.global_db catalog') "uw.course!"
  in
  check_b "tuples survive in order" true
    (Relalg.Relation.tuples stored' = rows);
  check_b "schema survives" true
    (Relalg.Schema.attrs (Relalg.Relation.schema stored')
    = Relalg.Schema.attrs (Relalg.Relation.schema stored));
  (* Render is a fixpoint of render -> parse -> render. *)
  check_b "text fixpoint" true (P.Pdms_file.render catalog' = rendered)

(* ------------------------------------------------------------------ *)
(* Durability: snapshot + WAL recovery (Persist). *)

let with_temp_dir f = Tmpdir.with_dir ~prefix:"revere-persist" f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Copy a data directory into [dst], truncating the WAL to [wal_bytes]
   — the injected crash: everything the OS had by that point survives,
   nothing after does. *)
let copy_dir_with_crash src wal_bytes dst =
  Array.iter
    (fun name ->
      let s = read_file (Filename.concat src name) in
      let s =
        if name = "wal.log" && String.length s > wal_bytes then
          String.sub s 0 wal_bytes
        else s
      in
      write_file (Filename.concat dst name) s)
    (Sys.readdir src)

(* A deterministic full-state transcript: every stored tuple in order,
   a ranked keyword search, and a reformulated answer.  Recovery is
   correct exactly when this string is byte-identical. *)
let persist_transcript t =
  let catalog = P.Persist.catalog t and db = P.Persist.db t in
  let b = Buffer.create 2048 in
  List.iter
    (fun name ->
      let rel = Relalg.Database.find db name in
      Buffer.add_string b (name ^ ":\n");
      List.iter
        (fun row ->
          Buffer.add_string b
            (String.concat " | "
               (Array.to_list (Array.map P.Pdms_file.render_value row)));
          Buffer.add_char b '\n')
        (Relalg.Relation.tuples rel))
    (List.sort compare (Relalg.Database.names db));
  List.iter
    (fun (h : P.Keyword.hit) ->
      Buffer.add_string b
        (Printf.sprintf "%.6f %s/%s %s\n" h.P.Keyword.score h.P.Keyword.peer
           h.P.Keyword.stored_rel
           (String.concat "|"
              (Array.to_list (Array.map Relalg.Value.to_string h.P.Keyword.tuple)))))
    (P.Keyword.search catalog "introduction seminar advanced");
  let stanford = P.Catalog.peer catalog "stanford" in
  List.iter
    (fun row -> Buffer.add_string b (String.concat "," row ^ "\n"))
    (P.Answer.answers_list
       (P.Answer.answer catalog (Workload.University.course_query stanford)));
  Buffer.contents b

(* The six-university catalog initialised in [dir], open. *)
let six_university_persist dir seed =
  let prng = Util.Prng.create seed in
  let d = Workload.University.build_delearning prng ~courses_per_peer:2 in
  P.Persist.init ~dir d.Workload.University.catalog;
  (P.Persist.open_dir_exn dir, prng)

(* Random effective updategram against a random stored relation. *)
let random_gram prng db gram_no =
  let names = Array.of_list (Relalg.Database.names db) in
  let rel_name = Util.Prng.pick_arr prng names in
  let rel = Relalg.Database.find db rel_name in
  let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
  let fresh i =
    Array.init arity (fun j ->
        if j = arity - 1 && Util.Prng.bool prng then
          Relalg.Value.Int (Util.Prng.int prng 500)
        else vs (Printf.sprintf "seminar g%d-%d-%d" gram_no i j))
  in
  let inserts = List.init (Util.Prng.int prng 3) fresh in
  let deletes =
    let existing = Relalg.Relation.tuples rel in
    List.filteri (fun i _ -> i < 2 && Util.Prng.bool prng) existing
    @ (if Util.Prng.bernoulli prng 0.3 then [ fresh 99 ] else [])
  in
  P.Updategram.make ~rel:rel_name ~inserts ~deletes ()

let test_persist_init_apply_reopen () =
  with_temp_dir @@ fun dir ->
  let t, prng = six_university_persist dir 11 in
  for g = 1 to 5 do
    P.Persist.apply ~sync:(g mod 2 = 0) t (random_gram prng (P.Persist.db t) g)
  done;
  ignore (P.Persist.snapshot t);
  P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) 6);
  let live = persist_transcript t in
  P.Persist.close t;
  let t' = P.Persist.open_dir_exn dir in
  check_b "reopen reproduces the live state byte-for-byte" true
    (persist_transcript t' = live);
  check_b "appends continue past recovery" true
    (P.Persist.wal_seq t' >= 1);
  P.Persist.close t';
  check_b "fsck passes" true (P.Persist.fsck_ok (P.Persist.fsck dir))

let test_persist_fsck_detects_damage () =
  with_temp_dir @@ fun dir ->
  let t, prng = six_university_persist dir 12 in
  P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) 1);
  P.Persist.close t;
  check_b "intact dir is ok" true (P.Persist.fsck_ok (P.Persist.fsck dir));
  (* A WAL record against a relation the snapshot does not know cannot
     replay: fsck must fail rather than let recovery throw later. *)
  (match Storage.Wal.open_dir ~dir with
  | Ok (w, _) ->
      ignore
        (Storage.Wal.append w ~rel:"nowhere.gone!"
           (Relalg.Relation.Delta.of_rows [ [| vs "x" |] ]));
      Storage.Wal.close w
  | Error m -> Alcotest.fail m);
  let r = P.Persist.fsck dir in
  check_b "unknown relation caught" false (P.Persist.fsck_ok r);
  (* Losing every snapshot is unrecoverable and must be reported. *)
  with_temp_dir @@ fun dir2 ->
  let t2, _ = six_university_persist dir2 13 in
  P.Persist.close t2;
  Array.iter
    (fun n ->
      if Filename.check_suffix n ".snap" then
        Sys.remove (Filename.concat dir2 n))
    (Sys.readdir dir2);
  check_b "no snapshot caught" false (P.Persist.fsck_ok (P.Persist.fsck dir2))

(* The crash-consistency sweep: kill the process at every byte boundary
   of the WAL's tail record; recovery must land exactly on the state
   the surviving prefix described, and fsck must pass. *)
let test_persist_kill_point_sweep () =
  with_temp_dir @@ fun dir ->
  let t, prng = six_university_persist dir 21 in
  (* Three effective grams; remember (wal size, transcript) after each. *)
  let states = ref [ (P.Persist.wal_size t, persist_transcript t) ] in
  for g = 1 to 3 do
    let before = P.Persist.wal_seq t in
    let rec effective n =
      P.Persist.apply ~sync:true t (random_gram prng (P.Persist.db t) (10 * g));
      if P.Persist.wal_seq t = before && n < 20 then effective (n + 1)
    in
    effective 0;
    states := (P.Persist.wal_size t, persist_transcript t) :: !states
  done;
  let states = List.rev !states in
  P.Persist.close t;
  let sizes = List.map fst states in
  let tail_start = List.nth sizes (List.length sizes - 2) in
  let tail_end = List.nth sizes (List.length sizes - 1) in
  check_b "tail record is non-empty" true (tail_end > tail_start);
  for cut = tail_start to tail_end do
    with_temp_dir @@ fun crashed ->
    copy_dir_with_crash dir cut crashed;
    let expected =
      (* The last state whose WAL prefix fully survived the crash. *)
      List.fold_left
        (fun acc (size, tr) -> if size <= cut then Some tr else acc)
        None states
      |> Option.get
    in
    check_b
      (Printf.sprintf "fsck at kill point %d" cut)
      true
      (P.Persist.fsck_ok (P.Persist.fsck crashed));
    let t' = P.Persist.open_dir_exn crashed in
    let got = persist_transcript t' in
    P.Persist.close t';
    if got <> expected then
      Alcotest.failf "kill point %d: recovered state diverges" cut
  done

(* Property: random gram streams, snapshots at random points, a crash
   at a random WAL byte offset — the recovered transcript is
   byte-identical to the surviving prefix's. *)
let prop_persist_crash_recovery =
  QCheck.Test.make ~name:"crash recovery = surviving prefix (random streams)"
    ~count:20
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      with_temp_dir @@ fun dir ->
      let t, prng = six_university_persist dir seed in
      (* (wal seq, wal size, transcript) after init and every apply;
         snapshots interleave at random points. *)
      let states = ref [ (0, P.Persist.wal_size t, persist_transcript t) ] in
      let snap_seqs = ref [ 0 ] in
      for g = 1 to 6 do
        P.Persist.apply ~sync:(Util.Prng.bool prng) t
          (random_gram prng (P.Persist.db t) g);
        states :=
          (P.Persist.wal_seq t, P.Persist.wal_size t, persist_transcript t)
          :: !states;
        if Util.Prng.bernoulli prng 0.25 then begin
          ignore (P.Persist.snapshot t);
          snap_seqs := P.Persist.wal_seq t :: !snap_seqs
        end
      done;
      let states = List.rev !states in
      let final_size = P.Persist.wal_size t in
      P.Persist.close t;
      let snap_max = List.fold_left max 0 !snap_seqs in
      (* Crash at a random byte offset across the whole log. *)
      let cut = Util.Prng.int prng (final_size + 1) in
      with_temp_dir @@ fun crashed ->
      copy_dir_with_crash dir cut crashed;
      (* Expected: the newest snapshot always survives (snapshot files
         are not truncated), so recovery lands on the later of (newest
         snapshot, last fully-durable WAL record). *)
      let surviving_seq =
        List.fold_left
          (fun acc (seq, size, _) -> if size <= cut then max acc seq else acc)
          0 states
      in
      let expect_seq = max snap_max surviving_seq in
      let expected =
        match List.find_opt (fun (seq, _, _) -> seq = expect_seq) states with
        | Some (_, _, tr) -> tr
        | None -> Alcotest.failf "no recorded state for seq %d" expect_seq
      in
      let ok_fsck = P.Persist.fsck_ok (P.Persist.fsck crashed) in
      let t' = P.Persist.open_dir_exn crashed in
      let got = persist_transcript t' in
      P.Persist.close t';
      ok_fsck && got = expected)

let test_pdms_file_errors () =
  check_b "row before store" true
    (Result.is_error
       (P.Pdms_file.parse "peer a\nrelation r(x)\nrow r: 1"));
  check_b "mapping without rhs" true
    (Result.is_error
       (P.Pdms_file.parse "peer a\nrelation r(x)\nstore r\nmapping equality\nlhs m(X) :- a.r(X)"));
  check_b "junk line" true (Result.is_error (P.Pdms_file.parse "frobnicate"));
  (* Each of these used to raise out of [parse] instead of naming its
     line (or, for the relation after a store, to drop the relation). *)
  let rejected_at line what text =
    match P.Pdms_file.parse text with
    | Error msg ->
        check_b (what ^ ": " ^ msg) true
          (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) msg)
    | Ok _ -> Alcotest.failf "%s: parsed" what
  in
  let a = "peer a\nrelation r(x)\nstore r\n" in
  let b = "peer b\nrelation s(x, y)\nstore s\n" in
  rejected_at 2 "store of an undeclared relation" "peer a\nstore r";
  rejected_at 4 "relation after a store" (a ^ "relation s(y)");
  rejected_at 4 "relation after a store, then its store"
    (a ^ "relation s(y)\nstore s");
  rejected_at 3 "relation declared twice" "peer a\nrelation r(x)\nrelation r(y)";
  rejected_at 2 "attribute declared twice" "peer a\nrelation r(x, x)\nstore r";
  rejected_at 8 "unsafe definitional rule"
    (a ^ b ^ "mapping definitional\nrule b.s(X, Y) :- a.r(X)");
  rejected_at 9 "GLAV heads of different arities"
    (a ^ b ^ "mapping equality\nlhs m(X) :- a.r(X)\nrhs m(X, Y) :- b.s(X, Y)");
  rejected_at 9 "unsafe GLAV side"
    (a ^ b ^ "mapping inclusion\nlhs m(X, Y) :- a.r(X)\nrhs m(X, Y) :- b.s(X, Y)")

(* Reading a catalog file is linear in its declarations: a 16x longer
   file of either shape may take at most 64x as long.  A linear reader
   reads about 16x; one that rebuilds the peer or rescans the catalog at
   each line reads about 250x.  Best of 3 runs each, so one slow run on
   a shared machine does not decide. *)
let test_pdms_file_linear () =
  let one_peer n =
    let b = Buffer.create (n * 32) in
    Buffer.add_string b "peer a\n";
    for i = 1 to n do Printf.bprintf b "relation r%d(x, y)\n" i done;
    for i = 1 to n do Printf.bprintf b "store r%d\n" i done;
    Buffer.contents b
  and many_peers n =
    let b = Buffer.create (n * 48) in
    for i = 1 to n do
      Printf.bprintf b "peer p%d\nrelation r(x, y)\nstore r\nrow r: a | b\n" i
    done;
    Buffer.contents b
  and mappings shape n =
    let b = Buffer.create (n * 64) in
    Buffer.add_string b "peer a\nrelation r(x, y)\npeer b\nrelation s(x, y)\n";
    for _ = 1 to n do
      Buffer.add_string b
        (match shape with
        | `Inclusion ->
            "mapping inclusion\nlhs m(X, Y) :- a.r(X, Y)\nrhs m(X, Y) :- b.s(X, Y)\n"
        | `Definitional -> "mapping definitional\nrule b.s(X, Y) :- a.r(X, Y)\n")
    done;
    Buffer.contents b
  in
  let best_ms text =
    let run () =
      let t0 = Unix.gettimeofday () in
      ignore (P.Pdms_file.parse_exn text : P.Catalog.t);
      Unix.gettimeofday () -. t0
    in
    1000. *. List.fold_left Float.min infinity (List.init 3 (fun _ -> run ()))
  in
  List.iter
    (fun (shape, make) ->
      let small = best_ms (make 500) and large = best_ms (make 8000) in
      check_b
        (Printf.sprintf "%s: 16x the input took %.1fx the time (%.2f -> %.2f ms)"
           shape (large /. small) small large)
        true
        (large <= 64. *. small))
    [ ("one peer, N relations", one_peer);
      ("N peers, one relation each", many_peers);
      ("N inclusions between two peers", mappings `Inclusion);
      ("N definitional rules with one head", mappings `Definitional) ]

(* No mutation of a catalog's lines (dropped, duplicated or moved lines,
   one identifier swapped for another of the file's) makes [parse] raise:
   it answers [Ok] or [Error]. *)
let prop_pdms_file_mutations_never_raise =
  let lines =
    String.split_on_char '\n'
      "peer a\nrelation r(x, y)\nrelation q(z)\nstore r\n\
       row r: 1 | one\nstore q\nrow q: 'two'\npeer b\n\
       relation s(x, y)\nstore s\nrow s: 3 | three\n\
       mapping equality\nlhs m(X, Y) :- a.r(X, Y)\n\
       rhs m(X, Y) :- b.s(X, Y)\nmapping inclusion\n\
       lhs m(X) :- a.q(X)\nrhs m(X) :- b.s(X, Y)\n\
       mapping definitional\nrule b.s(X, Y) :- a.r(X, Y), a.q(X)"
  in
  (* A line as alternating runs of identifier and other characters. *)
  let runs line =
    let id = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '!' -> true
      | _ -> false
    in
    let n = String.length line in
    let rec go acc i =
      if i >= n then List.rev acc
      else
        let j = ref i in
        while !j < n && id line.[!j] = id line.[i] do incr j done;
        go ((id line.[i], String.sub line i (!j - i)) :: acc) !j
    in
    go [] 0
  in
  let words =
    List.concat_map runs lines
    |> List.filter_map (fun (is_id, s) -> if is_id then Some s else None)
    |> List.sort_uniq compare |> Array.of_list
  in
  (* [line] with its [k]-th identifier (modulo their count) replaced. *)
  let swap line k word =
    let rs = runs line in
    match List.length (List.filter fst rs) with
    | 0 -> line
    | ids ->
        let seen = ref (-1) in
        String.concat ""
          (List.map
             (fun (is_id, s) ->
               if is_id then incr seen;
               if is_id && !seen = k mod ids then word else s)
             rs)
  in
  let mutate ls (op, i, j, w) =
    match List.length ls with
    | 0 -> ls
    | n -> (
        let i = i mod n and j = j mod n in
        let line = List.nth ls i in
        let others = List.filteri (fun k _ -> k <> i) ls in
        let insert l =
          List.filteri (fun k _ -> k < j) l
          @ (line :: List.filteri (fun k _ -> k >= j) l)
        in
        match op with
        | 0 -> others
        | 1 -> insert ls
        | 2 -> insert others
        | _ ->
            let word = words.(w mod Array.length words) in
            List.mapi (fun k l -> if k = i then swap l j word else l) ls)
  in
  QCheck.Test.make ~name:"pdms_file parse never raises on mutations" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 1 4)
        (quad (int_bound 3) small_nat small_nat small_nat))
    (fun ops ->
      let text = String.concat "\n" (List.fold_left mutate lines ops) in
      match P.Pdms_file.parse text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" text (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Update propagation to replicas *)

let test_propagate_to_remote_replica () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  ignore uw;
  let prop = P.Propagate.create catalog in
  (* MIT materialises ITS OWN view; UW materialises a replica of the
     same logical data through the mapping. *)
  let q_uw =
    q (atom "cal" [ v "X"; v "Y" ])
      [ P.Peer.atom (P.Catalog.peer catalog "uw") "course" [ v "X"; v "Y" ] ]
  in
  let n = P.Propagate.materialise prop ~name:"uw-cal" ~at:"uw" q_uw in
  check_i "replica starts with mit's data" 2 n;
  (* A new course appears in MIT's stored relation. *)
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let touched =
    P.Propagate.push prop
      (P.Updategram.make ~rel:stored_pred
         ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ())
  in
  check_b "replica touched" true (List.mem ("uw-cal", "uw") touched);
  check_i "replica grew" 3 (P.Propagate.cardinality prop ~name:"uw-cal");
  (* Retraction flows too. *)
  ignore
    (P.Propagate.push prop
       (P.Updategram.make ~rel:stored_pred
          ~deletes:[ [| vs "6.001"; vs "sicp" |] ] ()));
  check_i "replica shrank" 2 (P.Propagate.cardinality prop ~name:"uw-cal")

let test_propagate_multiple_replicas_consistent () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let prop = P.Propagate.create catalog in
  let q_uw =
    q (atom "a" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let q_mit =
    q (atom "b" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ]
  in
  ignore (P.Propagate.materialise prop ~name:"at-uw" ~at:"uw" q_uw);
  ignore (P.Propagate.materialise prop ~name:"at-mit" ~at:"mit" q_mit);
  let stored_pred = P.Peer.stored_pred mit "subject" in
  let touched =
    P.Propagate.push prop
      (P.Updategram.make ~rel:stored_pred
         ~inserts:[ [| vs "6.001"; vs "sicp" |] ] ())
  in
  check_i "both replicas touched" 2 (List.length touched);
  check_i "uw view" 3 (P.Propagate.cardinality prop ~name:"at-uw");
  check_i "mit view" 3 (P.Propagate.cardinality prop ~name:"at-mit");
  (* An updategram on an unrelated relation touches nothing. *)
  check_i "unrelated untouched" 0
    (List.length
       (P.Propagate.push prop (P.Updategram.make ~rel:"nosuch!" ~inserts:[] ())))

(* A downed replica host cannot take the delta: the push reports it
   lagging and serving stale answers while the reachable replica
   converges; healing the peer and reconciling replays the backlog and
   catches the replica up with the survivors. *)
let test_propagate_lag_and_reconcile () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let prop = P.Propagate.create catalog in
  let q_uw =
    q (atom "a" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let q_mit =
    q (atom "b" [ v "X"; v "Y" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ]
  in
  ignore (P.Propagate.materialise prop ~name:"at-uw" ~at:"uw" q_uw);
  ignore (P.Propagate.materialise prop ~name:"at-mit" ~at:"mit" q_mit);
  let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
  P.Network.Fault.fail_peer network "uw";
  let stored = P.Peer.stored_pred mit "subject" in
  let push row =
    P.Propagate.push prop ~network
      (P.Updategram.make ~rel:stored ~inserts:[ row ] ())
  in
  let touched = push [| vs "6.001"; vs "sicp" |] in
  check_b "mit's own replica converged" true
    (List.mem ("at-mit", "mit") touched);
  check_b "uw replica not in the converged set" false
    (List.mem ("at-uw", "uw") touched);
  check_i "uw backlog of one" 1 (List.assoc "at-uw" (P.Propagate.lagging prop));
  check_i "mit view grew" 3 (P.Propagate.cardinality prop ~name:"at-mit");
  check_i "uw serves stale answers" 2
    (P.Propagate.cardinality prop ~name:"at-uw");
  (* While down, a second update deepens the backlog. *)
  ignore (push [| vs "6.004"; vs "computation structures" |]);
  check_i "uw backlog of two" 2 (List.assoc "at-uw" (P.Propagate.lagging prop));
  check_b "reconcile fails while still down" false
    (P.Propagate.reconcile prop ~network ~name:"at-uw");
  check_i "backlog kept on failure" 2
    (List.assoc "at-uw" (P.Propagate.lagging prop));
  P.Network.Fault.heal_peer network "uw";
  check_b "reconcile succeeds after heal" true
    (P.Propagate.reconcile prop ~network ~name:"at-uw");
  check_i "no lagging replicas" 0 (List.length (P.Propagate.lagging prop));
  check_i "uw caught up" 4 (P.Propagate.cardinality prop ~name:"at-uw");
  check_i "mit caught up too" 4 (P.Propagate.cardinality prop ~name:"at-mit")

(* Propagate.push under random updategrams: deletes of absent tuples,
   tuples repeated within a gram, and a delete then reinsert of the same
   tuple, pushed to two replicas over a network where, in every other
   episode, one replica's host is down (then healed and reconciled).
   (a) Replaying the teed deltas with Relation.apply over a copy of the
   pre-push database reproduces every relation row for row, in order.
   (b) After each episode's reconcile, every replica holds exactly what
   Answer.answer returns for its query. *)
let prop_propagate_push_replay_and_converge =
  QCheck.Test.make
    ~name:"push: teed deltas replay, replicas = answers after reconcile"
    ~count:30
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create (seed + 4242) in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let n = 3 + (seed mod 3) in
      let topology = P.Topology.generate ~prng kind ~n in
      let g =
        Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3
          ~with_join:true ()
      in
      let catalog = g.Workload.Peers_gen.catalog in
      let db = P.Catalog.global_db catalog in
      let names = List.sort String.compare (Relalg.Database.names db) in
      let replicas =
        [ ("course", "p0", Workload.Peers_gen.course_query g ~at:0);
          ("join", "p1", Workload.Peers_gen.join_query g ~at:1) ]
      in
      let prop = P.Propagate.create catalog in
      List.iter
        (fun (name, at, query) ->
          ignore (P.Propagate.materialise prop ~name ~at query))
        replicas;
      let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
      let replay = Relalg.Database.copy db in
      let teed = ref [] in
      let tee ~rel d = teed := (rel, d) :: !teed in
      (* Mostly tuples already present or one column away from one, so
         deletes hit, inserts join, and absent deletes still occur. *)
      let pool = [| vs "x0"; vs "x1"; vs "x2" |] in
      let some_tuple rel =
        let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
        match Relalg.Relation.tuples rel with
        | [] -> Array.init arity (fun _ -> Util.Prng.pick_arr prng pool)
        | rows ->
            let row = Array.copy (Util.Prng.pick prng rows) in
            if Util.Prng.bool prng then
              row.(Util.Prng.int prng arity) <- Util.Prng.pick_arr prng pool;
            row
      in
      let gram () =
        let rel_name = Util.Prng.pick prng names in
        let rel = Relalg.Database.find db rel_name in
        let t1 = some_tuple rel and t2 = some_tuple rel in
        let inserts, deletes =
          match Util.Prng.int prng 4 with
          | 0 -> ([ t1; t2; t1 ], [])
          | 1 -> ([], [ t1; t2; t2 ])
          | 2 -> ([ t1 ], [ t1 ])
          | _ -> ([ t2 ], [ t1; t1 ])
        in
        P.Updategram.make ~rel:rel_name ~inserts ~deletes ()
      in
      let rows db name =
        Relalg.Relation.tuples (Relalg.Database.find db name)
        |> List.map (Array.map Relalg.Value.to_string)
      in
      let sorted_strings tuples =
        List.map
          (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
          tuples
        |> List.sort compare
      in
      let ok = ref true in
      for episode = 0 to 3 do
        let down =
          if episode mod 2 = 1 then
            Some (if episode = 1 then "p0" else "p1")
          else None
        in
        Option.iter (P.Network.Fault.fail_peer network) down;
        for _ = 1 to 4 do
          ignore (P.Propagate.push ~network ~prng ~tee prop (gram ()))
        done;
        Option.iter (P.Network.Fault.heal_peer network) down;
        List.iter
          (fun (name, _, _) ->
            if not (P.Propagate.reconcile ~network ~prng prop ~name) then
              ok := false)
          replicas;
        (* (a) replay the deltas teed since the last episode. *)
        List.iter
          (fun (rel, d) ->
            Relalg.Relation.apply (Relalg.Database.find replay rel) d)
          (List.rev !teed);
        teed := [];
        if not (List.for_all (fun nm -> rows replay nm = rows db nm) names)
        then ok := false;
        (* (b) every replica converged to the current answers. *)
        if P.Propagate.lagging prop <> [] then ok := false;
        List.iter
          (fun (name, _, query) ->
            let answers = P.Answer.answer catalog query in
            if
              sorted_strings (P.Propagate.tuples prop ~name)
              <> sorted_strings (Relalg.Relation.tuples answers.P.Answer.answers)
            then ok := false)
          replicas
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Observability: tracing must be invisible in the answers, and the
   span tree must reflect the answer path's phases. *)

(* answers_list with the memory sink on vs. trace off must be
   byte-identical — instrumentation cannot perturb evaluation. *)
let prop_trace_changes_no_answers =
  QCheck.Test.make ~name:"memory-sink trace changes no answers (any jobs)"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let kind =
        match seed mod 4 with
        | 0 -> P.Topology.Chain
        | 1 -> P.Topology.Star
        | 2 -> P.Topology.Ring
        | _ -> P.Topology.Mesh 1
      in
      let topology = P.Topology.generate ~prng kind ~n:(4 + (seed mod 3)) in
      let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
      let catalog = g.Workload.Peers_gen.catalog in
      let query = Workload.Peers_gen.course_query g ~at:(seed mod 2) in
      let plain = P.Answer.answers_list (P.Answer.answer catalog query) in
      let sink = Obs.Sink.memory () in
      let traced_exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
      let traced =
        P.Answer.answers_list (P.Answer.answer ~exec:traced_exec catalog query)
      in
      plain = traced && List.length (Obs.Sink.spans sink) = 1)

let test_answer_span_tree () =
  let prng = Util.Prng.create 2003 in
  let d = Workload.University.build_delearning prng ~courses_per_peer:3 in
  let _, stanford = List.hd d.Workload.University.peers in
  let sink = Obs.Sink.memory () in
  let exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
  let result =
    P.Answer.answer ~exec d.Workload.University.catalog
      (Workload.University.course_query stanford)
  in
  check_b "answers found" true (P.Answer.answers_list result <> []);
  match Obs.Sink.spans sink with
  | [ root ] ->
      (* The exact phase sequence of the answer path, in order; batch
         evaluation nests the trie planner and walk under "eval". *)
      Alcotest.(check (list string))
        "phases in order"
        [ "answer"; "reformulate"; "sweep"; "eval"; "plan"; "trie_eval" ]
        (Obs.Span.names root);
      let sweep = Option.get (Obs.Span.find root "sweep") in
      let attr_i name sp =
        match List.assoc_opt name sp.Obs.Span.attrs with
        | Some (Obs.Span.Int i) -> i
        | _ -> Alcotest.failf "missing int attr %s" name
      in
      check_b "sweep saw the rewritings" true (attr_i "input" sweep > 0);
      let eval = Option.get (Obs.Span.find root "eval") in
      check_i "eval answers attr matches result" (attr_i "answers" eval)
        (List.length (P.Answer.answers_list result));
      check_b "reformulate counts rewritings" true
        (attr_i "rewritings" (Option.get (Obs.Span.find root "reformulate"))
         > 0)
  | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans)

(* [Obs.Metrics.set_enabled] is the one metrics switch: off, a tour of
   the answer, cache, distributed, keyword, update and recovery paths
   leaves every metric as it was; on, the same tour moves each path's
   counters. *)
let test_one_metrics_switch () =
  let catalog, uw, _ = two_peer_catalog `Equality in
  let query =
    q (atom "ans" [ v "X"; v "Y" ]) [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let tour () =
    ignore (P.Answer.answer catalog query);
    let cache = P.Cache.create catalog () in
    ignore (P.Cache.answer cache query);
    ignore (P.Cache.answer cache query);
    let network = P.Distributed.network_of_catalog catalog ~latency_ms:1.0 in
    ignore (P.Distributed.execute catalog network ~at:"uw" query);
    ignore (P.Keyword.search catalog "databases");
    with_temp_dir @@ fun dir ->
    P.Persist.init ~dir catalog;
    let t = P.Persist.open_dir_exn dir in
    let u =
      P.Updategram.make ~rel:"mit.subject!"
        ~inserts:[ [| vs "6.824"; vs "distributed" |] ] ()
    in
    P.Persist.apply ~sync:true t u;
    ignore (P.Cache.invalidate cache u);
    P.Persist.close t;
    P.Persist.close (P.Persist.open_dir_exn dir)
  in
  let before = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled true) tour;
  check_b "switched off, nothing moves" true (Obs.Metrics.snapshot () = before);
  tour ();
  let after = Obs.Metrics.snapshot () in
  List.iter
    (fun name ->
      check_b (name ^ " moves") true
        (Obs.Metrics.counter_value after name
        > Obs.Metrics.counter_value before name))
    [ "pdms.answer.queries"; "pdms.cache.hits"; "pdms.distributed.executes";
      "pdms.keyword.searches"; "pdms.delta.applied"; "pdms.wal.replayed";
      "cq.plan.builds" ]

(* A union of one rewriting runs on the same plan as any other: the
   rows Cq.Eval would produce, in its insertion order, under an "eval"
   span with "plan" and "trie_eval" children. *)
let test_single_rewriting_runs_on_plan () =
  let catalog, _, mit = two_peer_catalog `Inclusion in
  let stored = Relalg.Database.find (P.Catalog.global_db catalog) "mit.subject!" in
  List.iter (insert stored)
    [ [| vs "6.824"; vs "distributed" |]; [| vs "6.001"; vs "sicp" |];
      [| vs "6.046"; vs "algorithms" |] ];
  let query =
    q (atom "ans" [ v "Y"; v "X" ]) [ P.Peer.atom mit "subject" [ v "X"; v "Y" ] ]
  in
  let sink = Obs.Sink.memory () in
  let exec = P.Exec.make ~trace:(Obs.Trace.create sink) () in
  let result = P.Answer.answer ~exec catalog query in
  match result.P.Answer.outcome.P.Reformulate.rewritings with
  | [ r ] -> (
      let expected = Relalg.Relation.create (Cq.Eval.head_schema r) in
      ignore
        (Cq.Eval.run_union_into expected (P.Catalog.global_db catalog) [ r ]);
      check_b "rows in Cq.Eval's insertion order" true
        (Relalg.Relation.tuples result.P.Answer.answers
        = Relalg.Relation.tuples expected);
      match Obs.Sink.spans sink with
      | [ root ] ->
          Alcotest.(check (list string))
            "eval children" [ "plan"; "trie_eval" ]
            (List.map
               (fun sp -> sp.Obs.Span.name)
               (Option.get (Obs.Span.find root "eval")).Obs.Span.children)
      | spans ->
          Alcotest.failf "expected one root span, got %d" (List.length spans))
  | rs -> Alcotest.failf "expected one rewriting, got %d" (List.length rs)

let test_cache_stats_accessor () =
  let catalog, uw, mit = two_peer_catalog `Equality in
  let cache = P.Cache.create ~capacity:2 catalog () in
  let query i =
    q (atom "ans" [ v "X"; v "Y"; Term.Const (vs (string_of_int i)) ])
      [ P.Peer.atom uw "course" [ v "X"; v "Y" ] ]
  in
  let s0 = P.Cache.stats cache in
  check_i "fresh hits" 0 s0.P.Cache.hits;
  check_i "fresh misses" 0 s0.P.Cache.misses;
  ignore (P.Cache.answer cache (query 0));
  ignore (P.Cache.answer cache (query 0));
  ignore (P.Cache.answer cache (query 1));
  let s1 = P.Cache.stats cache in
  check_i "one hit" 1 s1.P.Cache.hits;
  check_i "two misses" 2 s1.P.Cache.misses;
  check_i "no evictions yet" 0 s1.P.Cache.evictions;
  (* Overflow the capacity-2 cache: the third distinct query evicts. *)
  ignore (P.Cache.answer cache (query 2));
  check_i "one eviction" 1 (P.Cache.stats cache).P.Cache.evictions;
  (* Invalidation is counted separately from eviction; the rewritings
     read MIT's stored relation (the only one holding data). *)
  let stored = P.Peer.stored_pred mit "subject" in
  ignore (P.Cache.invalidate cache (P.Updategram.make ~rel:stored ()));
  let s2 = P.Cache.stats cache in
  check_b "invalidated counted" true (s2.P.Cache.invalidated > 0);
  check_i "evictions unchanged by invalidate" 1 s2.P.Cache.evictions;
  (* stats agrees with the legacy accessors. *)
  check_i "hits accessor agrees" (P.Cache.hits cache) s2.P.Cache.hits;
  check_i "misses accessor agrees" (P.Cache.misses cache) s2.P.Cache.misses

(* ------------------------------------------------------------------ *)
(* Placement *)

let test_placement_greedy_improves () =
  let net = P.Network.create () in
  P.Network.connect net "a" "b" ~latency_ms:50.0;
  P.Network.connect net "b" "c" ~latency_ms:50.0;
  let workloads =
    [ {
        P.Placement.view_name = "calendar";
        query_freq = [ ("a", 10.0); ("c", 10.0) ];
        update_rate = 0.1;
        result_size = 1024;
      } ]
  in
  let initial = [ ("calendar", [ "b" ]) ] in
  let before = P.Placement.cost net workloads initial in
  let placed = P.Placement.greedy net workloads ~initial ~max_replicas:3 in
  let after = P.Placement.cost net workloads placed in
  check_b "cost not worse" true (after <= before);
  check_b "replicated" true
    (List.length (List.assoc "calendar" placed) >= 2)

(* ------------------------------------------------------------------ *)
(* Constants of different types: [Str "1"], [Int 1] and [Float 1.] all
   render as 1 through Value.to_string, but they are different values
   and no dedupe, memo or cache key may merge them. *)

(* Peer p with relation r(a, b), stored, holding [rows]. *)
let typed_catalog rows =
  let catalog = P.Catalog.create () in
  let p = P.Peer.create ~name:"p" ~schema:[ ("r", [ "a"; "b" ]) ] in
  P.Catalog.add_peer catalog p;
  let stored = P.Catalog.store_identity catalog p ~rel:"r" in
  List.iter (insert stored) rows;
  (catalog, p)

let cardinality = Relalg.Relation.cardinality

let test_typed_body_dedupe () =
  let catalog, p = typed_catalog [ [| vs "a"; vs "1" |] ] in
  let body pred =
    [ atom pred [ v "X"; Term.str "1" ]; atom pred [ v "X"; Term.int 1 ] ]
  in
  let query = q (atom "q" [ v "X" ]) (body "p.r") in
  let direct = q (atom "q" [ v "X" ]) (body (P.Peer.stored_pred p "r")) in
  let expected = cardinality (Eval.run (P.Catalog.global_db catalog) direct) in
  check_i "no row holds both '1' and 1" 0 expected;
  check_i "answer agrees with direct evaluation" expected
    (cardinality (P.Answer.answer catalog query).P.Answer.answers)

let test_typed_goal_memo () =
  (* u.c(X) unfolds into u.d(X, '1') and into u.d(X, 1): two pending
     goals equal but for a constant's type, both to be expanded. *)
  let catalog = P.Catalog.create () in
  let u = P.Peer.create ~name:"u" ~schema:[ ("c", [ "a" ]); ("d", [ "a"; "b" ]) ] in
  let m = P.Peer.create ~name:"m" ~schema:[ ("s", [ "a"; "b" ]) ] in
  P.Catalog.add_peer catalog u;
  P.Catalog.add_peer catalog m;
  let stored = P.Catalog.store_identity catalog m ~rel:"s" in
  List.iter (insert stored) [ [| vs "a"; vs "1" |]; [| vs "b"; vi 1 |] ];
  let define head body =
    ignore
      (P.Catalog.add_mapping catalog (P.Peer_mapping.definitional (q head body)))
  in
  define (atom "u.c" [ v "X" ]) [ atom "u.d" [ v "X"; Term.str "1" ] ];
  define (atom "u.c" [ v "X" ]) [ atom "u.d" [ v "X"; Term.int 1 ] ];
  define (atom "u.d" [ v "X"; v "Y" ]) [ atom "m.s" [ v "X"; v "Y" ] ];
  let result =
    P.Answer.answer catalog (q (atom "q" [ v "X" ]) [ atom "u.c" [ v "X" ] ])
  in
  check_i "one rewriting per constant" 2
    (List.length result.P.Answer.outcome.P.Reformulate.rewritings);
  check_b "a through '1', b through 1" true
    (P.Answer.answers_list result = [ [ "a" ]; [ "b" ] ])

let test_cache_typed_keys () =
  let catalog, p = typed_catalog [ [| vs "a"; vs "1" |] ] in
  let cache = P.Cache.create catalog () in
  let query c = q (atom "q" [ v "X" ]) [ P.Peer.atom p "r" [ v "X"; c ] ] in
  check_i "Int query finds nothing" 0
    (cardinality (P.Cache.answer cache (query (Term.int 1))).P.Answer.answers);
  check_i "Str query gets its own entry" 1
    (cardinality (P.Cache.answer cache (query (Term.str "1"))).P.Answer.answers);
  check_i "two misses" 2 (P.Cache.misses cache);
  check_i "as a fresh answer" 1
    (cardinality (P.Answer.answer catalog (query (Term.str "1"))).P.Answer.answers)

let test_view_maintenance_typed_tuples () =
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  List.iter (insert r) [ [| vs "a"; vs "1" |]; [| vs "b"; vi 1 |] ];
  let vm =
    P.View_maintenance.create db
      (q (atom "vw" [ v "Y" ]) [ atom "r" [ v "X"; v "Y" ] ])
  in
  check_i "'1' and 1 are two tuples" 2 (P.View_maintenance.cardinality vm)

let test_view_maintenance_typed_derivations () =
  (* Over (a, '1') and (a, 1), vw(a) has four derivations; deleting
     (a, '1') must retract the three that use it, each counted once
     though they differ only in a constant's type. *)
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  List.iter (insert r) [ [| vs "a"; vs "1" |]; [| vs "a"; vi 1 |] ];
  let view =
    q (atom "vw" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "X"; v "Z" ] ]
  in
  let vm = P.View_maintenance.create db view in
  let delete row =
    P.View_maintenance.apply vm (P.Updategram.make ~rel:"r" ~deletes:[ row ] ())
  in
  delete [| vs "a"; vs "1" |];
  check_i "(a, 1) still derives a" 1 (P.View_maintenance.cardinality vm);
  delete [| vs "a"; vi 1 |];
  check_i "empty relation, empty view" 0 (P.View_maintenance.cardinality vm);
  check_i "agrees with evaluation" (cardinality (Eval.run db view))
    (P.View_maintenance.cardinality vm)

let test_propagate_typed_tuples () =
  let catalog, p = typed_catalog [ [| vs "a"; vs "1" |]; [| vs "b"; vi 1 |] ] in
  let prop = P.Propagate.create catalog in
  check_i "'1' and 1 are two tuples" 2
    (P.Propagate.materialise prop ~name:"typed" ~at:"p"
       (q (atom "q" [ v "Y" ]) [ P.Peer.atom p "r" [ v "X"; v "Y" ] ]));
  check_i "and stay two" 2 (P.Propagate.cardinality prop ~name:"typed")

(* A value with a line break must not split its row in the snapshot. *)
let test_persist_line_break_values () =
  let catalog, p = typed_catalog [] in
  with_temp_dir @@ fun dir ->
  P.Persist.init ~dir catalog;
  let t = P.Persist.open_dir_exn dir in
  let rel = P.Peer.stored_pred p "r" in
  let row = [| vs "line1\nline2"; vs "cr\rand \\n" |] in
  P.Persist.apply ~sync:true t (P.Updategram.make ~rel ~inserts:[ row ] ());
  ignore (P.Persist.snapshot t);
  P.Persist.close t;
  match P.Persist.open_dir dir with
  | Error msg -> Alcotest.fail msg
  | Ok t' ->
      let stored = Relalg.Database.find (P.Persist.db t') rel in
      check_b "the row survives snapshot and reopen" true
        (Relalg.Relation.tuples stored = [ row ]);
      P.Persist.close t'

(* A data directory whose snapshot is in format 1 (quoted values
   unescaped) is refused by name: recovery and fsck both fail rather
   than read it with format 2's escapes. *)
let test_persist_refuses_format_1 () =
  let catalog, _ = typed_catalog [ [| vs "'a\\nb'"; vs "1" |] ] in
  with_temp_dir @@ fun dir ->
  P.Persist.init ~dir catalog;
  let snap = Filename.concat dir "snapshot-0.snap" in
  let s = read_file snap in
  let magic = "REVERE-SNAP 2\n" in
  check_b "written as format 2" true
    (String.sub s 0 (String.length magic) = magic);
  write_file snap
    ("REVERE-SNAP 1\n"
    ^ String.sub s (String.length magic) (String.length s - String.length magic));
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  (match P.Persist.open_dir dir with
  | Ok _ -> Alcotest.fail "a format 1 directory must not recover"
  | Error msg ->
      check_b ("open_dir names the format: " ^ msg) true
        (contains msg "snapshot format 1"));
  let r = P.Persist.fsck dir in
  check_b "fsck fails" false (P.Persist.fsck_ok r);
  check_b "fsck names the format" true
    (List.exists (fun e -> contains e "snapshot format 1") r.P.Persist.errors)

(* A directory that does not recover is refused as it is: no WAL is
   created beside a junk snapshot, and a torn WAL tail beside a
   format-1 snapshot is not truncated. *)
let test_persist_refusal_writes_nothing () =
  let files dir =
    List.map
      (fun name -> (name, read_file (Filename.concat dir name)))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let refused what dir =
    let before = files dir in
    (match P.Persist.open_dir dir with
    | Ok _ -> Alcotest.failf "%s must not recover" what
    | Error _ -> ());
    check_b (what ^ ": every file kept") true (files dir = before)
  in
  with_temp_dir @@ fun junk ->
  write_file (Filename.concat junk "snapshot-0.snap") "junk bytes";
  refused "a junk snapshot" junk;
  with_temp_dir @@ fun dir ->
  let t, prng = six_university_persist dir 17 in
  for i = 1 to 3 do
    P.Persist.apply t (random_gram prng (P.Persist.db t) i)
  done;
  P.Persist.close t;
  let wal = Storage.Wal.file ~dir in
  let log = read_file wal in
  write_file wal (String.sub log 0 (String.length log - 3));
  (match Storage.Wal.read wal with
  | Ok r -> check_b "the tail is torn" true (r.Storage.Wal.torn_bytes > 0)
  | Error msg -> Alcotest.fail msg);
  let snap = Filename.concat dir "snapshot-0.snap" in
  let s = read_file snap in
  write_file snap ("REVERE-SNAP 1" ^ String.sub s 13 (String.length s - 13));
  refused "a torn tail beside a format-1 snapshot" dir

(* Mapping constants keep their type across a snapshot and reopen:
   Int 1, Str "1", Float 1e20 (rendered 1e+20, an exponent sign the
   parser must read) and Float (-0.0) each come back as themselves, so
   the reopened catalog reformulates and answers as the original. *)
let test_persist_typed_mapping_constants () =
  let catalog = P.Catalog.create () in
  let u =
    P.Peer.create ~name:"u" ~schema:[ ("c", [ "a" ]); ("d", [ "a"; "b" ]) ]
  in
  let m = P.Peer.create ~name:"m" ~schema:[ ("s", [ "a"; "b" ]) ] in
  P.Catalog.add_peer catalog u;
  P.Catalog.add_peer catalog m;
  let stored = P.Catalog.store_identity catalog m ~rel:"s" in
  let consts =
    [ vi 1; vs "1"; Relalg.Value.Float 1e20; Relalg.Value.Float (-0.0);
      vs "it's" ]
  in
  List.iteri
    (fun i c -> insert stored [| vs (Printf.sprintf "k%d" i); c |])
    consts;
  List.iter
    (fun c ->
      ignore
        (P.Catalog.add_mapping catalog
           (P.Peer_mapping.definitional
              (q (atom "u.c" [ v "X" ])
                 [ atom "u.d" [ v "X"; Term.Const c ] ]))))
    consts;
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.equality
          ~lhs:(q (atom "e" [ v "X"; v "Y" ]) [ atom "u.d" [ v "X"; v "Y" ] ])
          ~rhs:
            (q (atom "e" [ v "X"; v "Y" ]) [ atom "m.s" [ v "X"; v "Y" ] ])));
  (* Reference.add_value_key tells Int 1 from Str "1" and -0.0 from 0.0. *)
  let typed_key (r : Query.t) =
    let b = Buffer.create 64 in
    List.iter
      (fun (a : Atom.t) ->
        Buffer.add_string b a.pred;
        List.iter
          (function
            | Term.Var x -> Buffer.add_string b (" " ^ x)
            | Term.Const c ->
                Buffer.add_char b ' ';
                Reference.add_value_key b c)
          a.args;
        Buffer.add_char b ';')
      (r.head :: r.body);
    Buffer.contents b
  in
  let query = q (atom "q" [ v "X" ]) [ atom "u.c" [ v "X" ] ] in
  let transcript catalog =
    let result = P.Answer.answer catalog query in
    ( List.map
        (fun (_, mp) ->
          match mp with
          | P.Peer_mapping.Definitional r -> typed_key r
          | P.Peer_mapping.Glav g ->
              typed_key g.Rewrite.Glav.lhs ^ typed_key g.Rewrite.Glav.rhs)
        (P.Catalog.mappings catalog),
      List.map typed_key result.P.Answer.outcome.P.Reformulate.rewritings,
      P.Answer.answers_list result )
  in
  let original = transcript catalog in
  let _, _, answers = original in
  check_i "one answer per constant" (List.length consts) (List.length answers);
  with_temp_dir @@ fun dir ->
  P.Persist.init ~dir catalog;
  let t = P.Persist.open_dir_exn dir in
  ignore (P.Persist.snapshot t);
  P.Persist.close t;
  let t' = P.Persist.open_dir_exn dir in
  check_b "mappings, rewritings and answers survive by type" true
    (transcript (P.Persist.catalog t') = original);
  P.Persist.close t'

(* ------------------------------------------------------------------ *)
(* Reformulation output pinned byte for byte: every rewriting's
   rendering in order, then the stats line, digested per catalog. The
   relevance filter, the catalog's rule index and the structural dedupe
   keys only skip work, so these digests must never move with them. *)

let reformulation_digest ?(stats = true) catalog queries =
  let b = Buffer.create 4096 in
  List.iter
    (fun query ->
      let o = P.Reformulate.reformulate catalog query in
      List.iter
        (fun r ->
          Buffer.add_string b (Query.to_string r);
          Buffer.add_char b '\n')
        o.P.Reformulate.rewritings;
      if stats then
        Buffer.add_string b
          (Format.asprintf "%a\n" P.Reformulate.pp_stats o.P.Reformulate.stats))
    queries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let generated_peers ?(tuples = 4) kind ~graph_seed ~n =
  let topology = P.Topology.generate ~prng:(Util.Prng.create graph_seed) kind ~n in
  Workload.Peers_gen.generate (Util.Prng.create 7) ~topology
    ~tuples_per_peer:tuples ~with_join:true ()

let generated_join_catalog ?tuples kind ~graph_seed ~n =
  let g = generated_peers ?tuples kind ~graph_seed ~n in
  ( g.Workload.Peers_gen.catalog,
    List.init n (fun at -> Workload.Peers_gen.join_query g ~at) )

let test_reformulation_identity () =
  let d =
    Workload.University.build_delearning (Util.Prng.create 7) ~courses_per_peer:2
  in
  let university_queries =
    List.concat_map
      (fun (_, peer) ->
        [ Workload.University.course_query peer;
          Workload.University.course_instructor_query peer ])
      d.Workload.University.peers
  in
  let check name (catalog, queries) digest =
    Alcotest.(check string) name digest (reformulation_digest catalog queries)
  in
  check "six universities" (d.Workload.University.catalog, university_queries)
    "2ec7f1bc2a0111b2285fbf5d2ca3dca5";
  check "Mesh-1, 10 peers"
    (generated_join_catalog (P.Topology.Mesh 1) ~graph_seed:1101 ~n:10)
    "aa69238fb36a44a2461c350c124038b4";
  check "binary tree, 12 peers"
    (generated_join_catalog P.Topology.Binary_tree ~graph_seed:1102 ~n:12)
    "e1a61dd66fda0945694d3a34a2517d8a"

(* Single-atom queries form one goal group, and one group runs the
   search on the query itself: these digests were recorded before goal
   groups existed and must not move with them. *)
let test_single_atom_identity () =
  let d =
    Workload.University.build_delearning (Util.Prng.create 7) ~courses_per_peer:2
  in
  let course_queries kind ~graph_seed ~n =
    let g = generated_peers kind ~graph_seed ~n in
    ( g.Workload.Peers_gen.catalog,
      List.init n (fun at -> Workload.Peers_gen.course_query g ~at) )
  in
  let check name (catalog, queries) digest =
    Alcotest.(check string) name digest (reformulation_digest catalog queries)
  in
  check "six universities"
    ( d.Workload.University.catalog,
      List.map
        (fun (_, peer) -> Workload.University.course_query peer)
        d.Workload.University.peers )
    "a931fbbf6f30d362f4eef3bcc4b59da8";
  check "Mesh-1, 10 peers"
    (course_queries (P.Topology.Mesh 1) ~graph_seed:1101 ~n:10)
    "b6f81f3a091ec7705db0d8a0fc3c0361";
  check "binary tree, 12 peers"
    (course_queries P.Topology.Binary_tree ~graph_seed:1102 ~n:12)
    "713067f7d9797610848d3e63653e7b59"

(* The catalogs where the view index skips the most views: 24-peer
   Mesh-1 (220 views; joins and course queries) and the 48-peer Mesh-2
   joins (636 views). Recorded before the catalog kept its artifacts
   compiled and indexed by predicate, so they pin that the index, the
   templates and the structural memo key change no byte, stats lines
   included. *)
let test_indexed_catalog_identity () =
  let check name (catalog, queries) digest =
    Alcotest.(check string) name digest (reformulation_digest catalog queries)
  in
  let g = generated_peers (P.Topology.Mesh 1) ~graph_seed:1104 ~n:24 in
  let catalog = g.Workload.Peers_gen.catalog in
  check "Mesh-1, 24 peers, joins"
    (catalog, List.init 24 (fun at -> Workload.Peers_gen.join_query g ~at))
    "2b70f86c23ccbfe800ddae0b5d319a95";
  check "Mesh-1, 24 peers, courses"
    (catalog, List.init 24 (fun at -> Workload.Peers_gen.course_query g ~at))
    "ae7e5622be6f761b3a348a637b3c442f";
  check "Mesh-2, 48 peers, joins"
    (generated_join_catalog (P.Topology.Mesh 2) ~graph_seed:1 ~n:48)
    "751774b1fbd7c9598b848630041911ec"

(* Every kind of add extends the compiled artifacts alike whatever ran
   before it: a catalog that reformulated before each add
   reformulates, stats included, as one given the same adds with no
   reformulation between them. The adds bring a new peer, its storage
   (an identity and a containment description), a definitional rule,
   an inclusion, an equality and a projecting inclusion (so not every
   view variable is distinguished any more). *)
let test_compiled_catalog_follows_adds () =
  let build between =
    let g = generated_peers (P.Topology.Mesh 1) ~graph_seed:1101 ~n:6 in
    let catalog = g.Workload.Peers_gen.catalog in
    let p i = g.Workload.Peers_gen.peers.(i) in
    let x =
      P.Peer.create ~name:"x"
        ~schema:[ ("course", [ "code"; "title"; "instructor" ]); ("instr", [ "code"; "person" ]) ]
    in
    let course peer = P.Peer.atom peer "course" [ v "C"; v "T"; v "I" ] in
    let instr peer = P.Peer.atom peer "instr" [ v "C"; v "P" ] in
    let queries =
      q (atom "ans" [ v "T"; v "P" ]) [ course x; instr x ]
      :: q (atom "ans" [ v "C"; v "T"; v "I" ]) [ course x ]
      :: List.init 6 (fun at -> Workload.Peers_gen.join_query g ~at)
    in
    let mapping m () = ignore (P.Catalog.add_mapping catalog m) in
    let adds =
      [ (fun () -> P.Catalog.add_peer catalog x);
        (fun () -> ignore (P.Catalog.store_identity catalog x ~rel:"instr"));
        (fun () ->
          ignore (P.Peer.add_stored x ~rel:"course" ~attrs:[ "code"; "title" ]);
          P.Catalog.add_storage catalog
            (P.Storage_desc.make P.Storage_desc.Containment
               (q (atom (P.Peer.stored_pred x "course") [ v "C"; v "T" ]) [ course x ])));
        mapping (P.Peer_mapping.definitional (q (course x) [ course (p 0) ]));
        mapping
          (P.Peer_mapping.inclusion
             ~lhs:(q (atom "m" [ v "C"; v "P" ]) [ instr x ])
             ~rhs:(q (atom "m" [ v "C"; v "P" ]) [ instr (p 1) ]));
        mapping
          (P.Peer_mapping.equality
             ~lhs:(q (atom "m" [ v "C"; v "T"; v "I" ]) [ course x ])
             ~rhs:(q (atom "m" [ v "C"; v "T"; v "I" ]) [ course (p 2) ]));
        mapping
          (P.Peer_mapping.inclusion
             ~lhs:(q (atom "m" [ v "T" ]) [ course (p 3) ])
             ~rhs:(q (atom "m" [ v "T" ]) [ course x ])) ]
    in
    let before = reformulation_digest catalog queries in
    List.iter
      (fun add ->
        between catalog queries;
        add ())
      adds;
    (before, reformulation_digest catalog queries)
  in
  let before, reformulated = build (fun catalog queries -> ignore (reformulation_digest catalog queries)) in
  let _, untouched = build (fun _ _ -> ()) in
  check_b "the adds change the reformulations" true (before <> untouched);
  Alcotest.(check string) "reformulating between adds changes nothing" untouched reformulated

(* The 48-peer Mesh-2 join: each goal has 48 rewritings, so the product
   holds 48 x 48 = 2,304, all found under the default cap (a search over
   whole-query nodes stopped at the 2,000 cap and lost 12% of the rows).
   2,588 is the reference Datalog answer count; evaluating that program takes
   seconds, so the count is pinned instead. *)
let test_mesh2_join_complete () =
  let catalog, queries =
    generated_join_catalog ~tuples:48 (P.Topology.Mesh 2) ~graph_seed:1 ~n:48
  in
  let result = P.Answer.answer catalog (List.hd queries) in
  let stats = result.P.Answer.outcome.P.Reformulate.stats in
  check_i "rewritings" 2304 stats.P.Reformulate.emitted;
  check_b "not truncated" false stats.P.Reformulate.truncated;
  check_i "rows" 2588 (Relalg.Relation.cardinality result.P.Answer.answers)

(* A GLAV right-hand side joining two atoms on an existential variable
   covers both subgoals in one view match, so they stay one goal group
   and the join finds a's rows. Each atom reformulated alone (the join
   variable distinguished) finds none of them. A one-atom view does the
   same for a self-join on a variable it projects away: both subgoals
   map onto its one atom, so a one-atom body alone does not make
   splitting safe. *)
let test_existential_join_stays_grouped () =
  let catalog = P.Catalog.create () in
  let a = P.Peer.create ~name:"a" ~schema:[ ("taught", [ "title"; "person" ]) ] in
  let b =
    P.Peer.create ~name:"b"
      ~schema:[ ("course", [ "code"; "title" ]); ("instr", [ "code"; "person" ]) ]
  in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog b;
  let taught = P.Catalog.store_identity catalog a ~rel:"taught" in
  List.iter (insert taught)
    [ [| vs "databases"; vs "ann" |]; [| vs "systems"; vs "bob" |] ];
  let course = P.Peer.atom b "course" [ v "C"; v "T" ] in
  let instr = P.Peer.atom b "instr" [ v "C"; v "P" ] in
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.inclusion
          ~lhs:(q (atom "m" [ v "T"; v "P" ]) [ P.Peer.atom a "taught" [ v "T"; v "P" ] ])
          ~rhs:(q (atom "m" [ v "T"; v "P" ]) [ course; instr ])));
  let rows query = P.Answer.answers_list (P.Answer.answer catalog query) in
  Alcotest.(check (list (list string)))
    "the join finds a's rows"
    [ [ "databases"; "ann" ]; [ "systems"; "bob" ] ]
    (rows (q (atom "ans" [ v "T"; v "P" ]) [ course; instr ]));
  check_i "course alone finds none" 0
    (List.length (rows (q (atom "ans" [ v "C"; v "T" ]) [ course ])));
  check_i "instr alone finds none" 0
    (List.length (rows (q (atom "ans" [ v "C"; v "P" ]) [ instr ])));
  (* Peer a and its stored rows again, in a catalog of their own. *)
  let catalog = P.Catalog.create () in
  let c = P.Peer.create ~name:"c" ~schema:[ ("taught", [ "title"; "person" ]) ] in
  P.Catalog.add_peer catalog a;
  P.Catalog.add_peer catalog c;
  ignore (P.Catalog.store_identity catalog a ~rel:"taught");
  ignore
    (P.Catalog.add_mapping catalog
       (P.Peer_mapping.inclusion
          ~lhs:(q (atom "m" [ v "T" ]) [ P.Peer.atom a "taught" [ v "T"; v "P" ] ])
          ~rhs:(q (atom "m" [ v "T" ]) [ P.Peer.atom c "taught" [ v "T"; v "P" ] ])));
  Alcotest.(check (list (list string)))
    "a self-join on the projected column pairs each title with itself"
    [ [ "databases"; "databases" ]; [ "systems"; "systems" ] ]
    (P.Answer.answers_list
       (P.Answer.answer catalog
          (q (atom "ans" [ v "T"; v "U" ])
             [ P.Peer.atom c "taught" [ v "T"; v "P" ];
               P.Peer.atom c "taught" [ v "U"; v "P" ] ])))

(* A goal's rewriting can bind the variables it shares with the other
   goals: definitional heads fix b.course's code to 'c2', b.instr's
   person to 'dee' or its code to 'c9', or equate b.instr's code and
   person. The product applies each binding to every goal, drops the
   member whose goals fix the code to both 'c2' and 'c9' (2 x 4 - 1 = 7
   rewritings), and the answers equal the datalog program's. *)
let test_goal_bindings_join () =
  let catalog = P.Catalog.create () in
  let schema = [ ("course", [ "code"; "title" ]); ("instr", [ "code"; "person" ]) ] in
  let peer name rows =
    let p = P.Peer.create ~name ~schema in
    P.Catalog.add_peer catalog p;
    List.iter
      (fun (rel, tuples) ->
        let stored = P.Catalog.store_identity catalog p ~rel in
        List.iter (fun (x, y) -> insert stored [| vs x; vs y |]) tuples)
      rows;
    p
  in
  let a =
    peer "a"
      [ ("course", [ ("c1", "databases"); ("c2", "systems") ]);
        ("instr", [ ("c1", "ann"); ("c2", "bob") ]) ]
  in
  let b = peer "b" [ ("course", [ ("c3", "theory") ]); ("instr", [ ("c3", "cy") ]) ] in
  let c s = Term.Const (vs s) in
  let definitions =
    [ q (P.Peer.atom b "course" [ c "c2"; v "T" ]) [ P.Peer.atom a "course" [ v "X"; v "T" ] ];
      q (P.Peer.atom b "instr" [ v "X"; c "dee" ]) [ P.Peer.atom a "instr" [ v "X"; v "Y" ] ];
      q (P.Peer.atom b "instr" [ v "X"; v "X" ]) [ P.Peer.atom a "course" [ v "X"; v "T" ] ];
      q (P.Peer.atom b "instr" [ c "c9"; v "Y" ]) [ P.Peer.atom a "instr" [ v "X"; v "Y" ] ] ]
  in
  List.iter
    (fun r -> ignore (P.Catalog.add_mapping catalog (P.Peer_mapping.definitional r)))
    definitions;
  let own =
    List.concat_map
      (fun p ->
        List.map
          (fun rel ->
            q (P.Peer.atom p rel [ v "X"; v "Y" ]) [ P.Peer.stored_atom p rel [ v "X"; v "Y" ] ])
          [ "course"; "instr" ])
      [ a; b ]
  in
  let query =
    q (atom "ans" [ v "C"; v "T"; v "P" ])
      [ P.Peer.atom b "course" [ v "C"; v "T" ]; P.Peer.atom b "instr" [ v "C"; v "P" ] ]
  in
  let result = P.Answer.answer catalog query in
  check_i "rewritings" 7 (List.length result.P.Answer.outcome.P.Reformulate.rewritings);
  Alcotest.(check (list (list string)))
    "answers = datalog"
    (rel_sorted (Oracle.Datalog.query (P.Catalog.global_db catalog) (definitions @ own) query))
    (rel_sorted result.P.Answer.answers)

(* Each goal of the Mesh-1 join has 10 rewritings and the cap bounds
   each goal's search: a cap of 5 stops both searches with nodes still
   queued, and the stats line says so; the default cap finds all 100
   and says nothing. *)
let test_reformulation_truncated () =
  let catalog, queries =
    generated_join_catalog (P.Topology.Mesh 1) ~graph_seed:1101 ~n:10
  in
  let query = List.hd queries in
  let stats max_rewritings =
    let pruning = { P.Exec.default_pruning with max_rewritings } in
    (P.Reformulate.reformulate ~exec:(P.Exec.with_pruning pruning) catalog
       query)
      .P.Reformulate.stats
  in
  let full = stats P.Exec.default_pruning.max_rewritings in
  check_i "all rewritings" 100 full.P.Reformulate.emitted;
  check_b "default cap not reached" false full.P.Reformulate.truncated;
  let capped = stats 5 in
  check_b "cap of 5 truncates" true capped.P.Reformulate.truncated;
  let line = Format.asprintf "%a" P.Reformulate.pp_stats capped in
  check_b "stats line says truncated" true
    (String.ends_with ~suffix:" truncated" line)

(* Three peers whose cyclic mappings make most of a three-atom chain's
   emissions subsumed: o1.course is defined from o0's, o1.course and
   o2.course are equal, instr flows o0 -> o1 -> o2, and two GLAV
   inclusions lead from o2 back to o0, one joining course and instr,
   one projecting course onto instr's code. No rows are needed. *)
let subsumption_catalog () =
  let catalog = P.Catalog.create () in
  let schema = [ ("course", [ "code"; "title" ]); ("instr", [ "code"; "person" ]) ] in
  let peer i stores =
    let p = P.Peer.create ~name:(Printf.sprintf "o%d" i) ~schema in
    P.Catalog.add_peer catalog p;
    List.iter (fun rel -> ignore (P.Catalog.store_identity catalog p ~rel)) stores;
    p
  in
  let o0 = peer 0 [ "course"; "instr" ] in
  let o1 = peer 1 [ "course" ] in
  let o2 = peer 2 [ "course"; "instr" ] in
  let add m = ignore (P.Catalog.add_mapping catalog m) in
  let xy = [ v "X"; v "Y" ] in
  let side p rel = q (atom "m" xy) [ P.Peer.atom p rel xy ] in
  add (P.Peer_mapping.definitional (q (P.Peer.atom o1 "course" xy) [ P.Peer.atom o0 "course" xy ]));
  add (P.Peer_mapping.inclusion ~lhs:(side o0 "instr") ~rhs:(side o1 "instr"));
  add (P.Peer_mapping.equality ~lhs:(side o1 "course") ~rhs:(side o2 "course"));
  add (P.Peer_mapping.inclusion ~lhs:(side o1 "instr") ~rhs:(side o2 "instr"));
  let ctp = [ v "C"; v "T"; v "P" ] in
  let join p = [ P.Peer.atom p "course" [ v "C"; v "T" ]; P.Peer.atom p "instr" [ v "C"; v "P" ] ] in
  add (P.Peer_mapping.inclusion ~lhs:(q (atom "m" ctp) (join o2)) ~rhs:(q (atom "m" ctp) (join o0)));
  add
    (P.Peer_mapping.inclusion
       ~lhs:(q (atom "m" [ v "C" ]) [ P.Peer.atom o2 "course" [ v "C"; v "T" ] ])
       ~rhs:(q (atom "m" [ v "C" ]) [ P.Peer.atom o0 "instr" [ v "C"; v "P" ] ]));
  let course a = P.Peer.atom o0 "course" a and instr a = P.Peer.atom o0 "instr" a in
  let c = v "C" and t = v "T" and p = v "P" and d = v "D" in
  let chain = q (atom "ans" [ t; d ]) [ course [ c; t ]; instr [ c; p ]; instr [ d; p ] ] in
  ( catalog,
    chain,
    [ chain;
      q (atom "ans" [ t; p ]) [ course [ c; t ]; instr [ c; p ] ];
      q (atom "ans" [ t; p ]) [ course [ c; t ]; instr [ d; p ] ];
      q (atom "ans" [ c; t ]) [ course [ c; t ] ];
      q (atom "ans" [ c; p ]) [ instr [ c; p ] ] ] )

(* The cap counts every rewriting a search emits, subsumed ones
   included: the chain's search emits hundreds of rewritings that the
   sweep drops, and a cap of 100 must stop it there. *)
let test_cap_bounds_search () =
  let catalog, chain, _ = subsumption_catalog () in
  let pruning = { P.Exec.default_pruning with max_rewritings = 100 } in
  let stats =
    (P.Reformulate.reformulate ~exec:(P.Exec.with_pruning pruning) catalog chain)
      .P.Reformulate.stats
  in
  check_b "emissions within the cap" true
    (stats.P.Reformulate.emitted + stats.P.Reformulate.pruned_subsumed <= 100);
  check_b "truncated" true stats.P.Reformulate.truncated

(* Subsumption drops rewritings on this catalog, and on no pinned
   catalog above. The digest of the surviving lists (stats lines left
   out, as they count the drops) was recorded while an emit-time check
   ran before the sweep, and must not move with how subsumption is
   checked. *)
let test_subsumed_rewritings_identity () =
  let catalog, _, queries = subsumption_catalog () in
  Alcotest.(check string)
    "chain, join, cross product, course, instr" "de815d38e33fb48f64de5314746c1ef5"
    (reformulation_digest ~stats:false catalog queries)

(* Answer rows pinned in insertion order. The answer-set tests compare
   sorted rows; these digests also pin the order in which rows reach
   the accumulator, for Answer.answer and for a fault-free
   Distributed.execute, plus the trie's per-query counts and its
   cq.plan.bindings_reused delta. A join engine may change how it finds
   bindings but not which it finds, in what order, or how it counts
   them, so these digests must never move with it. *)

let answer_order_digest catalog queries =
  let b = Buffer.create 4096 in
  let add_rows rel =
    List.iter
      (fun row ->
        Array.iter (Reference.add_value_key b) row;
        Buffer.add_char b '\n')
      (Relalg.Relation.tuples rel)
  in
  let network = P.Distributed.network_of_catalog catalog ~latency_ms:15. in
  let reused () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "cq.plan.bindings_reused"
  in
  List.iter
    (fun (query, at) ->
      add_rows (P.Answer.answer catalog query).P.Answer.answers;
      Buffer.add_string b "--\n";
      add_rows (P.Distributed.execute catalog network ~at query).P.Distributed.answers;
      match (P.Reformulate.reformulate catalog query).P.Reformulate.rewritings with
      | [] -> Buffer.add_string b "no rewritings\n"
      | q0 :: _ as rewritings ->
          let db = P.Catalog.global_db catalog in
          let plan = Plan.build db rewritings in
          let out = Relalg.Relation.create (Eval.head_schema q0) in
          let before = reused () in
          let counts = Plan.run_union_into out db plan in
          Printf.bprintf b "counts %s reused %d\n"
            (String.concat "," (List.map string_of_int counts))
            (reused () - before))
    queries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_answer_order_identity () =
  let d =
    Workload.University.build_delearning (Util.Prng.create 7) ~courses_per_peer:4
  in
  let university_queries =
    List.concat_map
      (fun (name, peer) ->
        [ (Workload.University.course_query peer, name);
          (Workload.University.course_instructor_query peer, name) ])
      d.Workload.University.peers
  in
  (* The queries posed at the first [asked] peers (Peers_gen names peer
     [i] "p<i>"). *)
  let generated ~tuples ~asked kind ~graph_seed ~n =
    let catalog, queries = generated_join_catalog ~tuples kind ~graph_seed ~n in
    ( catalog,
      List.filteri (fun at _ -> at < asked)
        (List.mapi (fun at q -> (q, Printf.sprintf "p%d" at)) queries) )
  in
  let check name (catalog, queries) digest =
    Alcotest.(check string) name digest (answer_order_digest catalog queries)
  in
  check "six universities" (d.Workload.University.catalog, university_queries)
    "d08753f92f1d96505b535ff1aeb94b7d";
  check "Mesh-1, 10 peers"
    (generated ~tuples:24 ~asked:4 (P.Topology.Mesh 1) ~graph_seed:1101 ~n:10)
    "20ec64e332399c0a065fde79e13e612a";
  check "binary tree, 12 peers"
    (generated ~tuples:40 ~asked:6 P.Topology.Binary_tree ~graph_seed:1102 ~n:12)
    "0d9f56c0f51780e1110401fddddfd340"

(* The catalog's rule index and view list, derived from scratch: GAV
   rules (oldest mapping first) and LAV views (storage descriptions
   newest first, then each mapping's, oldest mapping first and the
   reversed direction before the forward one). The reference for the
   incrementally maintained artifacts, and for the view-body index and
   the existential flag derived beside them. *)
let reference_artifacts ~storage ~mappings =
  let pred id rev = Printf.sprintf "~map%d%s" id (if rev then "r" else "") in
  let retarget pred (r : Query.t) =
    { r with Query.head = { r.Query.head with Atom.pred } }
  in
  let of_mapping (id, mapping) =
    match mapping with
    | P.Peer_mapping.Definitional rule ->
        ([ (rule.Query.head.Atom.pred, (Some id, rule)) ], [])
    | P.Peer_mapping.Glav g ->
        let directions =
          (false, g)
          ::
          (match (g.Rewrite.Glav.kind, Rewrite.Glav.reversed g) with
          | Rewrite.Glav.Equality, Some rg -> [ (true, rg) ]
          | _ -> [])
        in
        let artifact rev side = (Some id, retarget (pred id rev) side) in
        ( List.map
            (fun (rev, g) -> (pred id rev, artifact rev g.Rewrite.Glav.lhs))
            directions,
          List.rev_map (fun (rev, g) -> artifact rev g.Rewrite.Glav.rhs) directions )
  in
  let parts = List.map of_mapping mappings in
  ( List.concat_map fst parts,
    List.map (fun d -> (None, d.P.Storage_desc.view)) storage
    @ List.concat_map snd parts )

let gen_catalog_ops =
  QCheck.Gen.(
    list_size (int_bound 24)
      (quad (int_bound 4) (int_bound 3) (int_bound 3) (oneofl [ "a"; "b" ])))

let prop_catalog_incremental_matches_rebuild =
  QCheck.Test.make ~name:"incremental rules and views = from-scratch derivation"
    ~count:200
    (QCheck.make gen_catalog_ops)
    (fun ops ->
      let catalog = P.Catalog.create () in
      let peers =
        Array.init 4 (fun i ->
            let peer =
              P.Peer.create ~name:(Printf.sprintf "p%d" i)
                ~schema:[ ("a", [ "x"; "y" ]); ("b", [ "x"; "y" ]) ]
            in
            P.Catalog.add_peer catalog peer;
            peer)
      in
      let side peer rel =
        q (atom "m" [ v "X"; v "Y" ]) [ P.Peer.atom peer rel [ v "X"; v "Y" ] ]
      in
      (* Storage descriptions newest first, as the reference wants. *)
      let storage = ref [] in
      List.iter
        (fun (op, i, j, rel) ->
          let pi = peers.(i) and pj = peers.(j) in
          match op with
          | 0 ->
              ignore (P.Catalog.store_identity catalog pi ~rel);
              storage := P.Storage_desc.identity pi ~rel :: !storage
          | 1 ->
              ignore
                (P.Catalog.add_mapping catalog
                   (P.Peer_mapping.equality ~lhs:(side pi rel) ~rhs:(side pj rel)))
          | 2 ->
              ignore
                (P.Catalog.add_mapping catalog
                   (P.Peer_mapping.inclusion ~lhs:(side pi rel) ~rhs:(side pj "a")))
          | 3 ->
              ignore
                (P.Catalog.add_mapping catalog
                   (P.Peer_mapping.definitional
                      (q (P.Peer.atom pj rel [ v "X"; v "Y" ])
                         [ P.Peer.atom pi "b" [ v "X"; v "Y" ] ])))
          | _ ->
              (* A projection: the right-hand view has an existential. *)
              let proj peer = q (atom "m" [ v "X" ]) [ P.Peer.atom peer rel [ v "X"; v "Y" ] ] in
              ignore
                (P.Catalog.add_mapping catalog
                   (P.Peer_mapping.inclusion ~lhs:(proj pi) ~rhs:(proj pj))))
        ops;
      let rules, views =
        reference_artifacts ~storage:!storage ~mappings:(P.Catalog.mappings catalog)
      in
      let preds =
        "nowhere"
        :: List.map fst rules
        @ List.concat_map
            (fun peer -> [ P.Peer.name peer ^ ".a"; P.Peer.name peer ^ ".b" ])
            (Array.to_list peers)
      in
      let plain = List.map (fun (a : P.Catalog.artifact) -> (a.id, a.template.Rewrite.Cover.query)) in
      let reading ps =
        List.filter
          (fun (_, view) -> List.exists (fun p -> List.mem p ps) (Query.body_preds view))
          views
      in
      let rules_for pred =
        let acc = ref [] in
        P.Catalog.iter_rules catalog pred (fun a -> acc := (a.id, a.template.Rewrite.Cover.query) :: !acc);
        List.rev !acc
      in
      plain (P.Catalog.views_reading catalog preds) = views
      && P.Catalog.distinguished_views catalog
         = List.for_all (fun (_, view) -> Query.existential_vars view = []) views
      && List.for_all
           (fun (id, _) ->
             P.Catalog.view_count catalog id
             = List.length (List.filter (fun (id', _) -> id' = Some id) views))
           (P.Catalog.mappings catalog)
      && (match P.Catalog.view_count catalog (P.Catalog.mapping_count catalog) with
         | _ -> false
         | exception Invalid_argument _ -> true)
      && List.for_all
           (fun pred ->
             let expected =
               List.filter_map (fun (p, r) -> if p = pred then Some r else None) rules
             in
             rules_for pred = expected
             && P.Catalog.has_rules catalog pred = (expected <> [])
             && P.Catalog.in_view_body catalog pred = (reading [ pred ] <> [])
             (* The index by body predicate keeps catalog order, alone
                and merged with another predicate's. *)
             && plain (P.Catalog.views_reading catalog [ pred ]) = reading [ pred ]
             && List.for_all
                  (fun other ->
                    plain (P.Catalog.views_reading catalog [ pred; other ])
                    = reading [ pred; other ])
                  preds)
           preds)

(* ------------------------------------------------------------------ *)
(* Restart readers: the one-pass row reader, wrong-arity updates and
   hostile data directories. *)

let same_value a b =
  match (a, b) with
  | Relalg.Value.Float x, Relalg.Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Relalg.Value.equal a b

let print_values vs =
  String.concat ", "
    (List.map
       (function
         | Relalg.Value.Str s -> Printf.sprintf "Str %S" s
         | v -> Relalg.Value.to_string v)
       vs)

(* Row text built from quotes, doubled quotes, separators inside and
   outside quotes, blanks (those String.trim strips and those the
   quote scan skips) and backslash escapes. *)
let prop_parse_row_agrees =
  let piece =
    QCheck.Gen.oneofl
      [ "'"; "''"; "|"; " | "; " "; "\t"; "\r"; "\012"; "\\"; "\\n";
        "\\r"; "\\\\"; "a"; "cse533"; "6.830"; "42"; "nan"; "true"; "inf";
        "x y"; "_1"; "'q'"; "'a | b'"; "'it''s'"; "'6.830'" ]
  in
  QCheck.Test.make ~name:"parse_row = split, trim, parse_value" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(map (String.concat "") (list_size (int_bound 8) piece)))
    (fun text ->
      let got = P.Pdms_file.parse_row text
      and want = Reference.parse_row text in
      List.equal same_value got want
      || QCheck.Test.fail_reportf "got [%s], want [%s]" (print_values got)
           (print_values want))

(* A row of the wrong arity, inserted or deleted, is refused before the
   write-ahead log or a push's tee sees it: the directory reopens as it
   was and fsck passes. *)
let test_persist_refuses_wrong_arity () =
  with_temp_dir @@ fun dir ->
  let t, _ = six_university_persist dir 13 in
  let before = P.Pdms_file.render (P.Persist.catalog t) in
  let rel = List.hd (Relalg.Database.names (P.Persist.db t)) in
  let arity =
    Relalg.Schema.arity
      (Relalg.Relation.schema (Relalg.Database.find (P.Persist.db t) rel))
  in
  let wide = Array.make (arity + 1) (vs "x") and narrow = [| vs "x" |] in
  let refused what u =
    match P.Persist.apply ~sync:true t u with
    | () -> Alcotest.failf "%s of the wrong arity was applied" what
    | exception Invalid_argument _ -> ()
  in
  refused "an insert" (P.Updategram.make ~rel ~inserts:[ wide ] ());
  refused "a delete" (P.Updategram.make ~rel ~deletes:[ narrow ] ());
  check_b "nothing was logged" true (P.Persist.wal_seq t = 0);
  let teed = ref 0 in
  (match
     P.Propagate.push
       ~tee:(fun ~rel:_ _ -> incr teed)
       (P.Propagate.create (P.Persist.catalog t))
       (P.Updategram.make ~rel ~inserts:[ wide ] ())
   with
  | _ -> Alcotest.fail "push applied a row of the wrong arity"
  | exception Invalid_argument _ -> ());
  check_b "push teed nothing" true (!teed = 0);
  P.Persist.close t;
  let t' = P.Persist.open_dir_exn dir in
  check_b "reopens with the same catalog" true
    (P.Pdms_file.render (P.Persist.catalog t') = before);
  P.Persist.close t';
  check_b "fsck passes" true (P.Persist.fsck_ok (P.Persist.fsck dir))

(* A small data directory's snapshot payload, and its WAL file's
   records (one insert, one delete, one of each), each as a framed
   payload. *)
let durable_files =
  lazy
    (with_temp_dir @@ fun dir ->
     P.Persist.init ~dir
       (P.Pdms_file.parse_exn
          "peer a\nrelation r(x, y)\nstore r\nrow r: 1 | one\n\
           row r: '6.830' | 'it''s | a\\nline'\npeer b\n\
           relation s(x, y)\nstore s\nrow s: 2.5 | true\n\
           mapping equality\nlhs m(X, Y) :- a.r(X, Y)\n\
           rhs m(X, Y) :- b.s(X, Y)\n");
     let t = P.Persist.open_dir_exn dir in
     let row a b = [| vi a; vs b |] in
     List.iter (P.Persist.apply t)
       [ P.Updategram.make ~rel:"a.r!" ~inserts:[ row 3 "three" ] ();
         P.Updategram.make ~rel:"a.r!" ~deletes:[ row 1 "one" ] ();
         P.Updategram.make ~rel:"a.r!" ~inserts:[ row 4 "four" ]
           ~deletes:[ row 3 "three" ] () ];
     P.Persist.close t;
     let _, payload = Option.get (Storage.Snapshot.load_latest ~dir) in
     let wal = read_file (Storage.Wal.file ~dir) in
     let rec frames pos =
       match Storage.Codec.read_frame wal pos with
       | Storage.Codec.Frame (p, next) -> p :: frames next
       | Storage.Codec.End | Storage.Codec.Torn _ -> []
     in
     let records = frames (String.index wal '\n' + 1) in
     let snapshot = read_file (Filename.concat dir "snapshot-0.snap") in
     (payload, records, snapshot, wal))

(* A snapshot file of [payload] and a WAL file of [records], framed as
   Snapshot.write and Wal.append frame them. *)
let snapshot_file payload =
  let buf = Buffer.create (String.length payload + 16) in
  Storage.Codec.add_varint buf 0;
  Storage.Codec.add_string buf payload;
  "REVERE-SNAP 2\n" ^ Storage.Codec.frame (Buffer.contents buf)

let wal_file records =
  "REVERE-WAL 1\n" ^ String.concat "" (List.map Storage.Codec.frame records)

(* WAL record payloads, encoded as Wal.append encodes them, that decode
   but do not replay onto the seed directory: an unknown relation, a
   row of the wrong arity, and the delete of an absent row (which
   replays as a no-op). *)
let odd_records =
  List.map
    (fun (seq, rel, adds, dels) ->
      let buf = Buffer.create 64 in
      Storage.Codec.add_varint buf seq;
      Storage.Codec.add_string buf rel;
      Storage.Codec.add_delta buf (Relalg.Relation.Delta.make ~adds ~dels ());
      Buffer.contents buf)
    [ (1, "a.q!", [ [| vi 1 |] ], []);
      (2, "a.r!", [ [| vi 1; vs "x"; vs "y" |] ], []);
      (3, "b.s!", [], [ [| vi 9; vs "absent" |] ]) ]

(* Every durable reader on a directory holding these two files; [Ok]
   when each answered, whatever it answered. *)
let read_durable ~snapshot ~wal =
  with_temp_dir @@ fun dir ->
  let snap_path = Filename.concat dir "snapshot-0.snap"
  and wal_path = Storage.Wal.file ~dir in
  write_file snap_path snapshot;
  write_file wal_path wal;
  ignore (Storage.Wal.read wal_path : (Storage.Wal.read_result, string) result);
  ignore (Storage.Snapshot.load snap_path : (int * string, string) result);
  ignore (P.Persist.fsck dir : P.Persist.fsck_report);
  (match P.Persist.open_dir dir with
  | Ok t -> P.Persist.close t
  | Error _ -> ());
  Ok ()

(* The seeds are the files the library writes, and the odd records,
   unmutated, are refused (or replayed, for the absent delete) without
   an exception. *)
let test_durable_seeds () =
  let payload, records, snapshot, wal = Lazy.force durable_files in
  check_b "snapshot file as written" true (snapshot_file payload = snapshot);
  check_b "WAL file as written" true (wal_file records = wal);
  check_b "three WAL records" true (List.length records = 3);
  List.iter2
    (fun record recovers ->
      with_temp_dir @@ fun dir ->
      write_file (Filename.concat dir "snapshot-0.snap") snapshot;
      write_file (Storage.Wal.file ~dir) (wal_file [ record ]);
      check_b "fsck agrees" recovers (P.Persist.fsck_ok (P.Persist.fsck dir));
      match P.Persist.open_dir dir with
      | Ok t ->
          P.Persist.close t;
          check_b "recovers" recovers true
      | Error _ -> check_b "refused" recovers false)
    odd_records [ false; false; true ]

(* Mutated files go through [Wal.read], [Snapshot.load], [Persist.fsck]
   and [Persist.open_dir]: as they lie on disk (the checksum catches
   most), and mutated inside a frame whose checksum holds, so the
   decoders, the catalog parser and the replay see them (a mutated
   record is the WAL's only one, so its sequence number, 1 to 3 in the
   seeds, passes the check against the snapshot's 0). *)
let props_durable_readers_never_raise =
  let bytes = String.init 256 Char.chr in
  let payload () =
    let p, _, _, _ = Lazy.force durable_files in
    p
  and records () =
    let _, r, _, _ = Lazy.force durable_files in
    r
  in
  let good_snapshot () = snapshot_file (payload ())
  and good_wal () = wal_file (records ()) in
  [ Fuzz.never_raises ~name:"durable readers: mutated WAL file never raise"
      ~alphabet:bytes [ good_wal () ] (fun wal ->
        read_durable ~snapshot:(good_snapshot ()) ~wal);
    Fuzz.never_raises
      ~name:"durable readers: mutated snapshot file never raise"
      ~alphabet:bytes [ good_snapshot () ] (fun snapshot ->
        read_durable ~snapshot ~wal:(good_wal ()));
    Fuzz.never_raises
      ~name:"durable readers: mutated WAL records never raise"
      ~alphabet:bytes (records () @ odd_records) (fun record ->
        read_durable ~snapshot:(good_snapshot ()) ~wal:(wal_file [ record ]));
    Fuzz.never_raises
      ~name:"durable readers: mutated snapshot payload never raise"
      ~alphabet:"abrsxy():|'\\\n 0123456789.!,-" [ payload () ] (fun text ->
        read_durable ~snapshot:(snapshot_file text) ~wal:(good_wal ())) ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pdms"
    [ ("reformulation",
       [ Alcotest.test_case "two-peer equality" `Quick test_two_peer_equality;
         Alcotest.test_case "inclusion directionality" `Quick
           test_two_peer_inclusion_directionality;
         Alcotest.test_case "unsafe query refused" `Quick
           test_unsafe_query_refused;
         Alcotest.test_case "definitional mapping" `Quick test_definitional_mapping;
         Alcotest.test_case "chain transitive closure" `Quick test_chain_transitive_closure;
         Alcotest.test_case "linear mapping count" `Quick test_chain_mapping_count_linear;
         Alcotest.test_case "reachability" `Quick test_reachability;
         Alcotest.test_case "same mapping twice" `Quick test_same_mapping_twice_in_one_query;
         Alcotest.test_case "local + remote" `Quick test_local_plus_remote_union;
         Alcotest.test_case "join through mappings" `Quick test_join_query_through_mapping;
         Alcotest.test_case "mesh completeness" `Quick test_mesh_completeness;
         Alcotest.test_case "no-pruning agrees" `Quick test_no_pruning_terminates_and_agrees;
         Alcotest.test_case "projection mapping" `Quick test_projection_mapping;
         Alcotest.test_case "storage description selection" `Quick
           test_storage_description_selection;
         Alcotest.test_case "body dedupe keeps constant types" `Quick
           test_typed_body_dedupe;
         Alcotest.test_case "goal memo keeps constant types" `Quick
           test_typed_goal_memo;
         Alcotest.test_case "rewritings pinned on three catalogs" `Quick
           test_reformulation_identity;
         Alcotest.test_case "rewriting cap reports truncation" `Quick
           test_reformulation_truncated;
         Alcotest.test_case "rewriting cap bounds the search" `Quick
           test_cap_bounds_search;
         Alcotest.test_case "subsumed rewritings pinned" `Quick
           test_subsumed_rewritings_identity;
         Alcotest.test_case "answer rows pinned on three catalogs" `Quick
           test_answer_order_identity;
         Alcotest.test_case "single-atom rewritings pinned" `Quick
           test_single_atom_identity;
         Alcotest.test_case "48-peer Mesh-2 join is complete" `Quick
           test_mesh2_join_complete;
         Alcotest.test_case "rewritings pinned on indexed catalogs" `Quick
           test_indexed_catalog_identity;
         Alcotest.test_case "compiled catalog follows every add" `Quick
           test_compiled_catalog_follows_adds;
         Alcotest.test_case "existential join stays one group" `Quick
           test_existential_join_stays_grouped;
         Alcotest.test_case "goal bindings join across groups" `Quick
           test_goal_bindings_join;
         Alcotest.test_case "fresh names across LAV steps" `Quick
           test_fresh_names_across_lav_steps;
         Alcotest.test_case "definitional keeps other sources" `Quick
           test_definitional_keeps_other_sources ]);
      ("catalog", qc [ prop_catalog_incremental_matches_rebuild ]);
      ("topology",
       [ Alcotest.test_case "shapes" `Quick test_topology_shapes ]);
      ("network",
       [ Alcotest.test_case "routing" `Quick test_network_routing;
         Alcotest.test_case "edge dedupe" `Quick test_network_edge_dedupe;
         Alcotest.test_case "faults" `Quick test_network_faults;
         Alcotest.test_case "retry under flakiness" `Quick
           test_network_retry_flaky;
         Alcotest.test_case "of_topology" `Quick test_network_of_topology ]);
      ("updategram",
       [ Alcotest.test_case "compose" `Quick test_updategram_compose ]
       @ qc [ prop_updategram_compose_replay ]);
      ("view-maintenance",
       [ Alcotest.test_case "basic" `Quick test_view_maintenance_basic;
         Alcotest.test_case "constant types kept apart" `Quick
           test_view_maintenance_typed_tuples;
         Alcotest.test_case "derivations keep constant types" `Quick
           test_view_maintenance_typed_derivations ]
       @ qc [ prop_view_maintenance_matches_recompute ]);
      ("keyword",
       [ Alcotest.test_case "cross-peer search" `Quick test_keyword_search;
         Alcotest.test_case "skips down peers" `Quick
           test_keyword_skips_down_peer;
         Alcotest.test_case "incremental reindex" `Quick
           test_kwindex_incremental;
         Alcotest.test_case "entry dies with its relation" `Quick
           test_kwindex_entry_lifetime;
         Alcotest.test_case "derived state shared across domains" `Quick
           test_derived_shared_across_domains;
         Alcotest.test_case "truncation falls back to rebuild" `Quick
           test_kwindex_truncation_fallback;
         Alcotest.test_case "compaction bounds tombstones" `Quick
           test_kwindex_compaction_bound ]
       @ qc
           [ prop_indexed_matches_brute;
             prop_kwindex_incremental_matches_rebuild;
             prop_kwindex_n_unchanged_writes;
             prop_probe_matches_slot_reference;
             prop_bound_first_matches_probe_every;
             prop_derived_patch_equals_rebuild ]);
      ("distributed",
       [ Alcotest.test_case "owner parsing" `Quick test_distributed_owner_parsing;
         Alcotest.test_case "beats central" `Quick test_distributed_beats_central;
         Alcotest.test_case "matches answer" `Quick test_distributed_answers_match_answer;
         Alcotest.test_case "counts executed messages only" `Quick
           test_distributed_messages_count_executed_only;
         Alcotest.test_case "partitioned six universities" `Quick
           test_distributed_partitioned_six_universities ]
       @ qc
           [ prop_distributed_no_faults_matches_answer;
             prop_batch_matches_nobatch ]);
      ("cache",
       [ Alcotest.test_case "hit and invalidate" `Quick test_cache_hit_and_invalidate;
         Alcotest.test_case "freshness" `Quick test_cache_reflects_updates_after_invalidation;
         Alcotest.test_case "follows catalog changes" `Quick
           test_cache_follows_catalog_changes;
         Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "lru touch protects" `Quick
           test_cache_lru_touch_protects;
         Alcotest.test_case "invalidate exact" `Quick
           test_cache_invalidate_exact;
         Alcotest.test_case "delta probe keeps unaffected entries" `Quick
           test_cache_delta_probe;
         Alcotest.test_case "constant types get separate entries" `Quick
           test_cache_typed_keys ]
       @ qc [ prop_cache_lru_reference_model ]);
      ("datalog-reference",
       [ Alcotest.test_case "inclusion chain agreement" `Quick
           test_datalog_reference_agreement ]
       @ qc [ prop_certain_answers ]);
      ("pdms_file",
       [ Alcotest.test_case "parse and answer" `Quick test_pdms_file_parse_and_answer;
         Alcotest.test_case "roundtrip" `Quick test_pdms_file_roundtrip;
         Alcotest.test_case "tricky rows" `Quick test_pdms_file_tricky_rows;
         Alcotest.test_case "errors" `Quick test_pdms_file_errors;
         Alcotest.test_case "linear in declarations" `Quick
           test_pdms_file_linear ]
       @ qc
           [ prop_pdms_file_roundtrip;
             prop_pdms_value_roundtrip;
             prop_parse_row_agrees;
             prop_pdms_file_mutations_never_raise ]);
      ("persist",
       [ Alcotest.test_case "init, apply, reopen" `Quick
           test_persist_init_apply_reopen;
         Alcotest.test_case "fsck detects damage" `Quick
           test_persist_fsck_detects_damage;
         Alcotest.test_case "kill-point sweep" `Quick
           test_persist_kill_point_sweep;
         Alcotest.test_case "line breaks in values" `Quick
           test_persist_line_break_values;
         Alcotest.test_case "persist refuses format 1" `Quick
           test_persist_refuses_format_1;
         Alcotest.test_case "a refused directory keeps its files" `Quick
           test_persist_refusal_writes_nothing;
         Alcotest.test_case "mapping constants keep their type" `Quick
           test_persist_typed_mapping_constants;
         Alcotest.test_case "wrong arity is refused before the log" `Quick
           test_persist_refuses_wrong_arity;
         Alcotest.test_case "durable fuzz seeds" `Quick test_durable_seeds ]
       @ qc (prop_persist_crash_recovery :: props_durable_readers_never_raise));
      ("propagate",
       [ Alcotest.test_case "remote replica" `Quick test_propagate_to_remote_replica;
         Alcotest.test_case "multiple replicas" `Quick
           test_propagate_multiple_replicas_consistent;
         Alcotest.test_case "lag and reconcile" `Quick
           test_propagate_lag_and_reconcile;
         Alcotest.test_case "constant types kept apart" `Quick
           test_propagate_typed_tuples ]
       @ qc [ prop_propagate_push_replay_and_converge ]);
      ("placement",
       [ Alcotest.test_case "greedy improves" `Quick test_placement_greedy_improves ]);
      ("observability",
       [ Alcotest.test_case "answer span tree" `Quick test_answer_span_tree;
         Alcotest.test_case "cache stats accessor" `Quick
           test_cache_stats_accessor;
         Alcotest.test_case "one metrics switch" `Quick
           test_one_metrics_switch;
         Alcotest.test_case "single rewriting runs on the plan" `Quick
           test_single_rewriting_runs_on_plan ]
       @ qc [ prop_trace_changes_no_answers ]) ]
