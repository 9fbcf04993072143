(* Piazza's performance machinery (Section 3.1.2): the parts of the PDMS
   that make it "a more Web-like environment ... in which peers can also
   perform the duties of cooperative web caches and content distribution
   networks":

   - distributed execution at the data sites vs. central shipping,
   - cooperative result caching with updategram invalidation,
   - materialised-view placement chosen by cost,
   - update propagation to the placed replicas.

   Run with: dune exec examples/piazza_performance.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let prng = Util.Prng.create 31 in
  let topology = Pdms.Topology.generate Pdms.Topology.Chain ~n:6 in
  let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:40 () in
  let catalog = g.Workload.Peers_gen.catalog in
  let names = List.init 6 (Printf.sprintf "p%d") in
  let network = Pdms.Network.of_topology topology ~names ~base_latency_ms:20.0 in

  section "Distributed execution";
  let some_code =
    let peer = g.Workload.Peers_gen.peers.(5) in
    let stored =
      Relalg.Database.find (Pdms.Peer.stored_db peer)
        (Pdms.Peer.stored_pred peer "course")
    in
    match Relalg.Relation.tuples stored with
    | row :: _ -> row.(0)
    | [] -> Relalg.Value.Str "?"
  in
  let selective =
    Cq.Query.make
      (Cq.Atom.make "ans" [ Cq.Term.v "T" ])
      [ Pdms.Peer.atom g.Workload.Peers_gen.peers.(0) "course"
          [ Cq.Term.Const some_code; Cq.Term.v "T"; Cq.Term.v "I" ] ]
  in
  let plan = Pdms.Distributed.execute catalog network ~at:"p0" selective in
  Printf.printf
    "selective query at p0: %d answers; distributed %.1f ms vs central %.1f ms\n"
    (Relalg.Relation.cardinality plan.Pdms.Distributed.answers)
    plan.Pdms.Distributed.distributed_ms plan.Pdms.Distributed.central_ms;

  section "Cooperative caching";
  let cache = Pdms.Cache.create catalog () in
  let full = Workload.Peers_gen.course_query g ~at:0 in
  let burst n = for _ = 1 to n do ignore (Pdms.Cache.answer cache full) done in
  burst 20;
  Printf.printf "20 repeated queries: %d misses, %d hits\n"
    (Pdms.Cache.misses cache) (Pdms.Cache.hits cache);
  (* An update at p3 invalidates exactly the dependent entry. *)
  let p3 = g.Workload.Peers_gen.peers.(3) in
  let u =
    Pdms.Updategram.make
      ~rel:(Pdms.Peer.stored_pred p3 "course")
      ~inserts:
        [ [| Relalg.Value.Str "new999";
             Relalg.Value.Str "a brand new course";
             Relalg.Value.Str (Workload.Vocab.person_name prng) |] ]
      ()
  in
  Pdms.Updategram.apply (Pdms.Catalog.global_db catalog) u;
  let dropped = Pdms.Cache.invalidate cache u in
  Printf.printf "update at p3 invalidated %d cache entr%s\n" dropped
    (if dropped = 1 then "y" else "ies");
  let fresh = Pdms.Cache.answer cache full in
  Printf.printf "next query re-answers and sees %d tuples (was %d)\n"
    (Relalg.Relation.cardinality fresh.Pdms.Answer.answers)
    (6 * 40);

  section "Cost-based view placement";
  let workloads =
    [ {
        Pdms.Placement.view_name = "coalition-calendar";
        query_freq = [ ("p0", 20.0); ("p5", 20.0); ("p2", 5.0) ];
        update_rate = 0.5;
        result_size = 4096;
      } ]
  in
  let initial = [ ("coalition-calendar", [ "p3" ]) ] in
  let before = Pdms.Placement.cost network workloads initial in
  let placed = Pdms.Placement.greedy network workloads ~initial ~max_replicas:3 in
  let after = Pdms.Placement.cost network workloads placed in
  Printf.printf "replicas: %s\n"
    (String.concat ", " (List.assoc "coalition-calendar" placed));
  Printf.printf "workload cost %.1f -> %.1f\n" before after;

  section "Update propagation to the placed replicas";
  (* Every replica the placement chose materialises the calendar, posed
     in p0's vocabulary and reformulated over the whole coalition. *)
  let p0 = g.Workload.Peers_gen.peers.(0) in
  let view =
    Cq.Query.make
      (Cq.Atom.make "calendar" [ Cq.Term.v "C"; Cq.Term.v "T" ])
      [ Pdms.Peer.atom p0 "course" [ Cq.Term.v "C"; Cq.Term.v "T"; Cq.Term.v "I" ] ]
  in
  let propagation = Pdms.Propagate.create catalog in
  List.iter
    (fun at ->
      let rows =
        Pdms.Propagate.materialise propagation ~name:("calendar@" ^ at) ~at view
      in
      Printf.printf "materialised %d rows at the replica on %s\n" rows at)
    (List.assoc "coalition-calendar" placed);
  (* One updategram at p0 travels over the network to each replica that
     reads p0's courses; each is maintained by derivation counting. *)
  let converged =
    Pdms.Propagate.push ~network propagation
      (Pdms.Updategram.make
         ~rel:(Pdms.Peer.stored_pred p0 "course")
         ~inserts:
           [ [| Relalg.Value.Str "late1"; Relalg.Value.Str "late addition";
                Relalg.Value.Str "staff" |] ]
         ())
  in
  List.iter
    (fun (name, at) ->
      Printf.printf "after one updategram: the replica on %s holds %d rows\n" at
        (Pdms.Propagate.cardinality propagation ~name))
    converged;
  print_newline ()
