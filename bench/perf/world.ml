(* Workloads: a catalog shape, the queries posed over it, and the round
   of ops a single closed-loop client repeats: answers and distributed
   answers 3:1 on answer_mesh, answers alone on answer_bulk, searches
   alone on search_warm, and updates, searches and cached answers drawn
   40/30/30 on live_mixed. The mapping graph is fixed per workload
   (seeded by the workload, not by --seed): reformulation cost depends on
   the graph far more than on the data. Data, the queries each op poses
   and the rows each update writes all come from --seed. *)

type kind = Answer | Distributed | Search | Cached | Update | Snapshot

let kinds = [ Answer; Distributed; Search; Cached; Update; Snapshot ]

let kind_name = function
  | Answer -> "answer"
  | Distributed -> "distributed"
  | Search -> "search"
  | Cached -> "cached"
  | Update -> "update"
  | Snapshot -> "snapshot"

(* What Answer and Distributed ops pose: the course-instructor join at
   peer [i mod peers], or a uniformly drawn single-atom template. *)
type query_shape = Join | Template

type spec = {
  name : string;
  why : string;
  graph : Pdms.Topology.kind;
  graph_seed : int;
  peers : int;
  tuples : int;  (** per stored relation; two relations per peer *)
  query : query_shape;
  round : kind list;
  drawn : bool;
      (** each op's kind is drawn uniformly from [round], so its
          multiset gives the weights; else [round] runs in order *)
  keywords : int;  (** distinct keyword queries *)
  keyword_zipf : bool;  (** Zipf(s=1) over them, else uniform *)
}

let rep n k = List.init n (fun _ -> k)

let answer_mesh =
  {
    name = "answer_mesh";
    why =
      "cyclic Mesh-1 mappings, 10 peers x 48 tuples, answers and distributed \
       answers 3:1: reformulation is most of each join answer";
    graph = Pdms.Topology.Mesh 1;
    graph_seed = 1101;
    peers = 10;
    tuples = 48;
    query = Join;
    round = [ Answer; Answer; Answer; Distributed ];
    drawn = false;
    keywords = 256;
    keyword_zipf = false;
  }

let answer_bulk =
  {
    name = "answer_bulk";
    why =
      "acyclic binary-tree mappings, 12 peers x 500 tuples, answers only: few \
       rewritings, so the Cq.Plan trie walk is most of each answer";
    graph = Pdms.Topology.Binary_tree;
    graph_seed = 1102;
    peers = 12;
    tuples = 500;
    query = Join;
    round = [ Answer ];
    drawn = false;
    keywords = 256;
    keyword_zipf = false;
  }

let search_warm =
  {
    name = "search_warm";
    why =
      "51,200 docs in 128 relations, read-only keyword searches: the corpus \
       memo and norms always hit, so only probe and rank run";
    graph = Pdms.Topology.Mesh 1;
    graph_seed = 1103;
    peers = 64;
    tuples = 400;
    query = Template;
    round = [ Search ];
    drawn = false;
    keywords = 256;
    keyword_zipf = false;
  }

let live_mixed =
  {
    name = "live_mixed";
    why =
      "updates, searches and cached answers drawn 40/30/30 on a durable \
       catalog: delta patching, corpus re-merge, cache invalidation and WAL";
    graph = Pdms.Topology.Mesh 1;
    graph_seed = 1104;
    peers = 24;
    tuples = 150;
    query = Template;
    round = rep 4 Update @ rep 3 Search @ rep 3 Cached;
    drawn = true;
    keywords = 64;
    keyword_zipf = true;
  }

let all = [ answer_mesh; answer_bulk; search_warm; live_mixed ]

(* Toy sizes of the same four workloads, for the smoke check. *)
let smoke =
  List.map
    (fun s ->
      { s with peers = min s.peers 6; tuples = min s.tuples 12; keywords = min s.keywords 16 })
    all

let find name = List.find_opt (fun s -> s.name = name) all

let templates = 96
let snapshot_every = 1000

(* WAL records a restart replays on top of its snapshot. *)
let restart_suffix = 200

(* ------------------------------------------------------------------ *)

type t = {
  spec : spec;
  dir : string;  (** the live data directory *)
  persist : Pdms.Persist.t;
  catalog : Pdms.Catalog.t;
  gen : Workload.Peers_gen.generated;
  cache : Pdms.Cache.t;
  net : Pdms.Network.t;
  templates : Cq.Query.t array;
  template_peers : string array;  (** the peer each template is posed at *)
  template_codes : string array;
  keywords : string array;
  courses : string array;  (** every peer's stored course relation *)
  prng : Util.Prng.t;  (** the op stream *)
  restart_dir : string;
      (** a second data directory, frozen after setup: a snapshot plus
          [restart_suffix] WAL records, so every restart replays the
          same work *)
  restart_render : string;  (** what a restart from it must render *)
  mutable pending : kind list;
  mutable answers : int;
  mutable distributed : int;
  mutable updates : int;
}

let uses spec k = List.mem k spec.round

let template peer code =
  Cq.Query.make
    (Cq.Atom.make "ans" [ Cq.Term.v "T"; Cq.Term.v "I" ])
    [ Pdms.Peer.atom peer "course"
        [ Cq.Term.Const (Relalg.Value.Str code); Cq.Term.v "T"; Cq.Term.v "I" ] ]

let course_codes (gen : Workload.Peers_gen.generated) =
  Array.to_list gen.Workload.Peers_gen.peers
  |> List.concat_map (fun peer ->
         Relalg.Relation.tuples
           (Relalg.Database.find (Pdms.Peer.stored_db peer)
              (Pdms.Peer.stored_pred peer "course")))
  |> List.map (fun row -> Relalg.Value.to_string row.(0))
  |> Array.of_list

(* An updategram against a random peer's course relation, which every
   template, join and keyword search reads: one fresh row in, the
   oldest out, so relation sizes stay steady. One insert in eight
   reuses a template's course code, so the cache's delta probe has
   entries to drop. *)
let next_update w =
  let prng = w.prng in
  let rel_name = Util.Prng.pick_arr prng w.courses in
  let rel = Relalg.Database.find (Pdms.Persist.db w.persist) rel_name in
  let code =
    if Util.Prng.int prng 8 = 0 then Util.Prng.pick_arr prng w.template_codes
    else Workload.Vocab.course_code prng
  in
  let row =
    [| Relalg.Value.Str code;
       Relalg.Value.Str (Workload.Vocab.course_title prng);
       Relalg.Value.Str (Workload.Vocab.person_name prng) |]
  in
  let deletes = match Relalg.Relation.tuples rel with oldest :: _ -> [ oldest ] | [] -> [] in
  Pdms.Updategram.make ~rel:rel_name ~inserts:[ row ] ~deletes ()

(* Write the restart directory: the generated catalog plus
   [restart_suffix] updates drawn from [prng]; returns its rendering. *)
let freeze_restart w prng =
  Pdms.Persist.init ~dir:w.restart_dir w.gen.Workload.Peers_gen.catalog;
  let p = Pdms.Persist.open_dir_exn w.restart_dir in
  let scratch = { w with persist = p; prng } in
  for _ = 1 to restart_suffix do
    Pdms.Persist.apply p (next_update scratch)
  done;
  Pdms.Persist.sync p;
  let render = Pdms.Pdms_file.render (Pdms.Persist.catalog p) in
  Pdms.Persist.close p;
  render

(* Generate the catalog from the seed, make it durable in [dir]/live
   (Persist.init + open_dir, as a peer started with a data directory
   is), write the frozen restart directory [dir]/restart, and warm the
   index and corpus with one search. A workload with cached answers
   also warms the statistics and the answer cache (full from the start,
   so invalidation always probes as many entries) by answering every
   template through it. *)
let setup spec ~seed ~dir =
  let prng = Util.Prng.create seed in
  let topology =
    Pdms.Topology.generate
      ~prng:(Util.Prng.create spec.graph_seed)
      spec.graph ~n:spec.peers
  in
  let gen =
    Workload.Peers_gen.generate (Util.Prng.split prng) ~topology
      ~tuples_per_peer:spec.tuples ~with_join:true ()
  in
  let live = Filename.concat dir "live" in
  Pdms.Persist.init ~dir:live gen.Workload.Peers_gen.catalog;
  let persist = Pdms.Persist.open_dir_exn live in
  let catalog = Pdms.Persist.catalog persist in
  let tprng = Util.Prng.split prng in
  let codes = course_codes gen in
  let template_codes =
    Array.init templates (fun _ -> Util.Prng.pick_arr tprng codes)
  in
  let peers =
    Array.map (fun _ -> Util.Prng.pick_arr tprng gen.Workload.Peers_gen.peers) template_codes
  in
  let templates = Array.map2 template peers template_codes in
  let keywords =
    Array.of_list
      (Workload.Peers_gen.keyword_queries gen (Util.Prng.split prng)
         ~n:spec.keywords)
  in
  let courses =
    Array.map (fun p -> Pdms.Peer.stored_pred p "course") gen.Workload.Peers_gen.peers
  in
  let w =
    {
      spec;
      dir = live;
      persist;
      catalog;
      gen;
      cache = Pdms.Cache.create catalog ();
      net = Pdms.Distributed.network_of_catalog catalog ~latency_ms:15.;
      templates;
      template_peers = Array.map Pdms.Peer.name peers;
      template_codes;
      keywords;
      courses;
      prng = Util.Prng.split prng;
      restart_dir = Filename.concat dir "restart";
      restart_render = "";
      pending = [];
      answers = 0;
      distributed = 0;
      updates = 0;
    }
  in
  let w = { w with restart_render = freeze_restart w (Util.Prng.split prng) } in
  ignore (Pdms.Keyword.search catalog keywords.(0));
  if uses spec Cached then Array.iter (fun q -> ignore (Pdms.Cache.answer w.cache q)) templates;
  w

(* ------------------------------------------------------------------ *)
(* The op stream. *)

type op =
  | Answer_op of Cq.Query.t
  | Distributed_op of string * Cq.Query.t
  | Search_op of string
  | Cached_op of Cq.Query.t
  | Update_op of Pdms.Updategram.t
  | Snapshot_op

let kind_of = function
  | Answer_op _ -> Answer
  | Distributed_op _ -> Distributed
  | Search_op _ -> Search
  | Cached_op _ -> Cached
  | Update_op _ -> Update
  | Snapshot_op -> Snapshot

let refill w =
  let spec = w.spec in
  w.pending <-
    (if spec.drawn then
       let a = Array.of_list spec.round in
       List.init (Array.length a) (fun _ -> Util.Prng.pick_arr w.prng a)
     else spec.round)

(* Query number [i] of the Answer/Distributed stream and the peer it is
   posed at. *)
let posed w prng i =
  match w.spec.query with
  | Join ->
      let at = i mod w.spec.peers in
      ( Pdms.Peer.name w.gen.Workload.Peers_gen.peers.(at),
        Workload.Peers_gen.join_query w.gen ~at )
  | Template ->
      let t = Util.Prng.int prng templates in
      (w.template_peers.(t), w.templates.(t))

(* An op of kind [k], its choices drawn from the round's stream. *)
let make w = function
  | Answer ->
      let _, q = posed w w.prng w.answers in
      w.answers <- w.answers + 1;
      Answer_op q
  | Distributed ->
      let at, q = posed w w.prng w.distributed in
      w.distributed <- w.distributed + 1;
      Distributed_op (at, q)
  | Search ->
      let n = Array.length w.keywords in
      let i =
        if w.spec.keyword_zipf then Util.Prng.zipf w.prng ~n ~s:1.0 - 1
        else Util.Prng.int w.prng n
      in
      Search_op w.keywords.(i)
  | Cached -> Cached_op w.templates.(Util.Prng.zipf w.prng ~n:templates ~s:1.0 - 1)
  | Update ->
      w.updates <- w.updates + 1;
      if w.updates mod snapshot_every = 0 then w.pending <- Snapshot :: w.pending;
      Update_op (next_update w)
  | Snapshot -> Snapshot_op

(* The round's next op. *)
let next w =
  if w.pending = [] then refill w;
  match w.pending with
  | [] -> assert false
  | k :: rest ->
      w.pending <- rest;
      make w k
