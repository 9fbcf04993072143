(* Bechamel micro-benchmarks for the hot paths, one Test.make per
   experiment family. Run with: dune exec bench/main.exe -- bechamel *)

open Bechamel
open Toolkit

let minicon_fixture =
  let v = Cq.Term.v in
  let query =
    Cq.Query.make
      (Cq.Atom.make "q" [ v "X0"; v "X6" ])
      (List.init 6 (fun i ->
           Cq.Atom.make (Printf.sprintf "e%d" i)
             [ v (Printf.sprintf "X%d" i); v (Printf.sprintf "X%d" (i + 1)) ]))
  in
  let views =
    List.concat_map
      (fun start ->
        List.filter_map
          (fun vlen ->
            if start + vlen > 6 then None
            else
              Some
                (Cq.Query.make
                   (Cq.Atom.make (Printf.sprintf "v_%d_%d" start vlen)
                      [ v (Printf.sprintf "A%d" start);
                        v (Printf.sprintf "A%d" (start + vlen)) ])
                   (List.init vlen (fun i ->
                        Cq.Atom.make (Printf.sprintf "e%d" (start + i))
                          [ v (Printf.sprintf "A%d" (start + i));
                            v (Printf.sprintf "A%d" (start + i + 1)) ]))))
          [ 1; 2 ])
      (List.init 6 Fun.id)
  in
  (query, views)

let test_minicon =
  let query, views = minicon_fixture in
  Test.make ~name:"minicon:chain6-subchain-views"
    (Staged.stage (fun () -> ignore (Rewrite.Minicon.rewrite ~views query)))

let reformulate_fixture =
  let prng = Util.Prng.create 41 in
  let topology = Pdms.Topology.generate Pdms.Topology.Chain ~n:8 in
  let g = Workload.Peers_gen.generate prng ~topology ~tuples_per_peer:3 () in
  (g.Workload.Peers_gen.catalog, Workload.Peers_gen.course_query g ~at:0)

let test_reformulate =
  let catalog, query = reformulate_fixture in
  Test.make ~name:"pdms:reformulate-chain8"
    (Staged.stage (fun () -> ignore (Pdms.Reformulate.reformulate catalog query)))

let triple_fixture =
  let prng = Util.Prng.create 42 in
  let repo = Mangrove.Repository.create () in
  ignore
    (Workload.Pages.publish_department prng ~repo ~host:"uw" ~people:10
       ~course_pages:10 ~courses_per_page:4);
  repo

let test_triple_query =
  let repo = triple_fixture in
  Test.make ~name:"mangrove:calendar-40courses"
    (Staged.stage (fun () -> ignore (Mangrove.Apps.calendar repo)))

let view_fixture =
  let prng = Util.Prng.create 43 in
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  let s = Relalg.Database.create_relation db "s" [ "b"; "c" ] in
  let add rel =
    ignore
      (Relalg.Relation.add_distinct rel
         [| Relalg.Value.Int (Util.Prng.int prng 500);
            Relalg.Value.Int (Util.Prng.int prng 500) |]
        : bool)
  in
  for _ = 1 to 2000 do
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
  let prng' = Util.Prng.create 44 in
  (vm, prng')

let test_view_maintenance =
  let vm, prng = view_fixture in
  Test.make ~name:"pdms:updategram-apply"
    (Staged.stage (fun () ->
         Pdms.View_maintenance.apply vm
           (Pdms.Updategram.make ~rel:"r"
              ~inserts:
                [ [| Relalg.Value.Int (Util.Prng.int prng 500);
                     Relalg.Value.Int (Util.Prng.int prng 500) |] ]
              ())))

let test_stemmer =
  Test.make ~name:"util:porter-stem"
    (Staged.stage (fun () -> ignore (Util.Stemmer.stem "relational")))

let lsd_fixture =
  let prng = Util.Prng.create 45 in
  let examples =
    List.concat_map
      (fun i ->
        let variant =
          Workload.Perturb.perturb
            ~name:(Printf.sprintf "t%d" i)
            (Util.Prng.split prng) ~level:0.3 Workload.University.mediated_schema
        in
        let mapping =
          List.map
            (fun (b, p) -> (p, Workload.Perturb.label_of b))
            variant.Workload.Perturb.truth
        in
        Matching.Lsd.examples_of_schema ~mapping variant.Workload.Perturb.perturbed)
      [ 0; 1; 2 ]
  in
  let lsd = Matching.Lsd.train ~examples () in
  let probe =
    Workload.Perturb.perturb ~name:"probe" prng ~level:0.3
      Workload.University.mediated_schema
  in
  (lsd, List.hd (Matching.Column.of_schema probe.Workload.Perturb.perturbed))

let test_lsd_predict =
  let lsd, column = lsd_fixture in
  Test.make ~name:"matching:lsd-predict-column"
    (Staged.stage (fun () -> ignore (Matching.Lsd.predict_column lsd column)))

let run () =
  let tests =
    Test.make_grouped ~name:"revere"
      [ test_minicon; test_reformulate; test_triple_query;
        test_view_maintenance; test_stemmer; test_lsd_predict ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  Printf.printf "\n## Bechamel micro-benchmarks (monotonic clock, ns/run)\n\n";
  let table = Util.Ascii_table.create [ "benchmark"; "ns_per_run"; "r2" ] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> Printf.sprintf "%.1f" e
        | Some es ->
            String.concat "," (List.map (Printf.sprintf "%.1f") es)
        | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Util.Ascii_table.add_row table [ name; estimate; r2 ])
    results;
  Util.Ascii_table.print table
