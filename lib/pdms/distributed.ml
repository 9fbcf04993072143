type site_plan = {
  rewriting : Cq.Query.t;
  site : string;
  local_reads : int;
  remote_reads : int;
  fetch_ms : float;
  ship_ms : float;
}

type completeness = {
  complete : bool;
  sites_failed : string list;
  rewritings_dropped : int;
  send_attempts : int;
  retries : int;
  backoff_ms : float;
}

type plan = {
  at : string;
  sites : site_plan list;
  answers : Relalg.Relation.t;
  central_ms : float;
  distributed_ms : float;
  report : completeness;
}

let m_executes = Obs.Metrics.counter "pdms.distributed.executes"
let m_sites_local = Obs.Metrics.counter "pdms.distributed.sites_local"
let m_sites_remote = Obs.Metrics.counter "pdms.distributed.sites_remote"
let m_candidates = Obs.Metrics.counter "pdms.distributed.candidates_considered"
let m_rejected = Obs.Metrics.counter "pdms.distributed.candidates_rejected"
let m_partial = Obs.Metrics.counter "pdms.distributed.partial"
let m_dropped = Obs.Metrics.counter "pdms.distributed.rewritings_dropped"
let m_fetch_ms = Obs.Metrics.histogram "pdms.distributed.fetch_ms"
let m_ship_ms = Obs.Metrics.histogram "pdms.distributed.ship_ms"

let owner_of_pred pred =
  match String.index_opt pred '.' with
  | Some i when i > 0 && String.length pred > 0 && pred.[String.length pred - 1] = '!'
    ->
      Some (String.sub pred 0 i)
  | Some _ | None -> None

let bytes_per_tuple = 64

let relation_bytes db pred =
  match Relalg.Database.find_opt db pred with
  | Some rel -> Relalg.Relation.cardinality rel * bytes_per_tuple
  | None -> 0

(* Pure cost estimate that tolerates same-peer transfers; [None] means
   unreachable. Planning never touches the network's traffic counters. *)
let estimate network ~src ~dst ~size =
  if String.equal src dst || size = 0 then Some 0.0
  else Network.cost network ~src ~dst ~size

(* Choose an execution site for one rewriting. [result] is the
   already-evaluated answer relation, reused for the ship-size estimate
   instead of a second evaluation. *)
let plan_rewriting catalog network ~at db (r : Cq.Query.t) result =
  let reads =
    Cq.Query.body_preds r |> List.filter (Catalog.is_stored catalog)
  in
  let owners = List.filter_map owner_of_pred reads in
  (* Candidate sites: every (live) owner plus the querying peer; pick
     the one minimising estimated input-shipping cost. *)
  let candidates =
    List.sort_uniq String.compare (at :: owners)
    |> List.filter (fun c ->
           String.equal c at || not (Network.Fault.is_down network c))
  in
  let cost_at site =
    List.fold_left
      (fun acc pred ->
        match owner_of_pred pred with
        | Some owner when not (String.equal owner site) -> (
            match
              estimate network ~src:owner ~dst:site
                ~size:(relation_bytes db pred)
            with
            | Some c -> acc +. c
            | None -> infinity)
        | Some _ | None -> acc)
      0.0 reads
  in
  let site, _ =
    List.fold_left
      (fun (best_site, best_cost) cand ->
        (* The seed already priced [at]; don't evaluate it twice. *)
        if String.equal cand at then (best_site, best_cost)
        else
          let c = cost_at cand in
          if c < best_cost then (cand, c) else (best_site, best_cost))
      (at, cost_at at) candidates
  in
  let local_reads =
    List.length
      (List.filter (fun pred -> owner_of_pred pred = Some site) reads)
  in
  ( {
      rewriting = r;
      site;
      local_reads;
      remote_reads = List.length reads - local_reads;
      fetch_ms = 0.0;
      ship_ms = 0.0;
    },
    reads,
    result,
    List.length candidates )

(* Which peer to blame for a failed transfer. *)
let culprit ~at = function
  | Network.Peer_down p -> p
  | Network.No_route (a, b)
  | Network.Link_drop (a, b)
  | Network.Timed_out (a, b, _) ->
      if String.equal a at then b else a

type transfer_outcome = {
  mutable t_attempts : int;
  mutable t_retries : int;
  mutable t_backoff : float;
}

(* Run one rewriting's transfers for real: fetch every remote input to
   the site, then ship the result back to the querying peer. Any
   transfer that exhausts its retries drops the rewriting. *)
let run_transfers network ~retry ~prng ~at ~db totals (sp, reads, result, _) =
  let exchange ~src ~dst ~size =
    if String.equal src dst || size = 0 then Ok 0.0
    else begin
      let o = Network.send_with_retry network ~retry ~prng ~src ~dst ~size in
      totals.t_attempts <- totals.t_attempts + o.Network.attempts;
      totals.t_retries <- totals.t_retries + o.Network.retries;
      totals.t_backoff <- totals.t_backoff +. o.Network.backoff_ms;
      match o.Network.result with
      | Ok _ -> Ok o.Network.elapsed_ms
      | Error e -> Error e
    end
  in
  let fetch =
    List.fold_left
      (fun acc pred ->
        match acc with
        | Error _ -> acc
        | Ok ms -> (
            match owner_of_pred pred with
            | Some owner when not (String.equal owner sp.site) -> (
                match
                  exchange ~src:owner ~dst:sp.site
                    ~size:(relation_bytes db pred)
                with
                | Ok t -> Ok (ms +. t)
                | Error e -> Error e)
            | Some _ | None -> Ok ms))
      (Ok 0.0) reads
  in
  match fetch with
  | Error e -> Error (culprit ~at e)
  | Ok fetch_ms -> (
      let ship_size = Relalg.Relation.cardinality result * bytes_per_tuple in
      match exchange ~src:sp.site ~dst:at ~size:ship_size with
      | Error e -> Error (culprit ~at e)
      | Ok ship_ms -> Ok ({ sp with fetch_ms; ship_ms }, result))

let execute ?(exec = Exec.default) catalog network ~at query =
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "distributed.execute" @@ fun () ->
  let outcome = Reformulate.reformulate ~exec catalog query in
  let rewritings = outcome.Reformulate.rewritings in
  let db = Catalog.global_db catalog in
  (* Evaluate each rewriting exactly once; the result feeds both the
     ship-size estimate and the final union. Site planning needs one
     answer relation per rewriting, so the trie runs in [run_each] mode
     — shared prefixes are still computed once. *)
  let results =
    Obs.Trace.span trace "eval" @@ fun () ->
    Obs.Trace.attr_i trace "rewritings" (List.length rewritings);
    match rewritings with
    | [] -> []
    | _ -> Cq.Plan.run_each ~trace db (Cq.Plan.build ~trace db rewritings)
  in
  let planned, candidates_total =
    Obs.Trace.span trace "plan" @@ fun () ->
    let planned =
      List.map2 (plan_rewriting catalog network ~at db) rewritings results
    in
    let candidates_total =
      List.fold_left (fun acc (_, _, _, c) -> acc + c) 0 planned
    in
    Obs.Trace.attr_i trace "rewritings" (List.length planned);
    Obs.Trace.attr_i trace "candidate_sites" candidates_total;
    Obs.Trace.attr_i trace "remote_sites"
      (List.length
         (List.filter
            (fun (p, _, _, _) -> not (String.equal p.site at))
            planned));
    (planned, candidates_total)
  in
  (* Transfers run sequentially with a constant-seeded jitter stream, so
     plans (and retry schedules) are reproducible. *)
  let totals = { t_attempts = 0; t_retries = 0; t_backoff = 0.0 } in
  let prng = Util.Prng.create 0x5e7d in
  let survived, failed =
    Obs.Trace.span trace "transfer" @@ fun () ->
    let survived, failed =
      List.fold_left
        (fun (ok, bad) p ->
          match
            run_transfers network ~retry:exec.Exec.retry ~prng ~at ~db totals p
          with
          | Ok sp -> (sp :: ok, bad)
          | Error peer -> (ok, peer :: bad))
        ([], []) planned
    in
    (List.rev survived, List.sort_uniq String.compare failed)
  in
  let dropped = List.length planned - List.length survived in
  let sites = List.map fst survived in
  let answers =
    let shape =
      match survived with (sp0, _) :: _ -> sp0.rewriting | [] -> query
    in
    let out = Relalg.Relation.create (Cq.Eval.head_schema shape) in
    List.iter
      (fun (_, result) ->
        Relalg.Relation.iter (Cq.Eval.add_distinct out) result)
      survived;
    out
  in
  (* Central baseline: ship every stored relation any rewriting reads to
     the querying peer, once. Unreachable owners simply can't
     contribute, so they are priced at zero rather than infinity. *)
  let all_reads =
    List.concat_map (fun (_, reads, _, _) -> reads) planned
    |> List.sort_uniq String.compare
  in
  let central_ms =
    List.fold_left
      (fun acc pred ->
        match owner_of_pred pred with
        | Some owner -> (
            match
              estimate network ~src:owner ~dst:at ~size:(relation_bytes db pred)
            with
            | Some c -> acc +. c
            | None -> acc)
        | None -> acc)
      0.0 all_reads
  in
  (* Sites run in parallel; each pays fetch + ship. *)
  let distributed_ms =
    List.fold_left
      (fun worst p -> Float.max worst (p.fetch_ms +. p.ship_ms))
      0.0 sites
  in
  let report =
    {
      complete = dropped = 0;
      sites_failed = failed;
      rewritings_dropped = dropped;
      send_attempts = totals.t_attempts;
      retries = totals.t_retries;
      backoff_ms = totals.t_backoff;
    }
  in
  Obs.Metrics.incr m_executes;
  List.iter
    (fun p ->
      if String.equal p.site at then Obs.Metrics.incr m_sites_local
      else Obs.Metrics.incr m_sites_remote;
      Obs.Metrics.observe m_fetch_ms p.fetch_ms;
      Obs.Metrics.observe m_ship_ms p.ship_ms)
    sites;
  Obs.Metrics.add m_candidates candidates_total;
  Obs.Metrics.add m_rejected (candidates_total - List.length planned);
  if dropped > 0 then begin
    Obs.Metrics.incr m_partial;
    Obs.Metrics.add m_dropped dropped
  end;
  Obs.Trace.attr_s trace "at" at;
  Obs.Trace.attr_i trace "answers" (Relalg.Relation.cardinality answers);
  Obs.Trace.attr_f trace "central_ms" central_ms;
  Obs.Trace.attr_f trace "distributed_ms" distributed_ms;
  Obs.Trace.attr_b trace "complete" report.complete;
  Obs.Trace.attr_i trace "rewritings_dropped" dropped;
  Obs.Trace.attr_i trace "retries" totals.t_retries;
  { at; sites; answers; central_ms; distributed_ms; report }

let report_to_string r =
  Printf.sprintf
    "complete=%b sites_failed=[%s] rewritings_dropped=%d attempts=%d \
     retries=%d backoff=%.1fms"
    r.complete
    (String.concat "," r.sites_failed)
    r.rewritings_dropped r.send_attempts r.retries r.backoff_ms

(* Uniform-latency network over the mapping graph: two peers are
   connected iff some mapping mentions both. Every catalog peer is
   present even if unmapped; [connect] dedupes repeated pairs. *)
let network_of_catalog catalog ~latency_ms =
  let network = Network.create () in
  List.iter
    (fun p -> Network.add_peer network (Peer.name p))
    (Catalog.peers catalog);
  List.iter
    (fun (_, m) ->
      let ps = Peer_mapping.peers_mentioned m in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if String.compare a b < 0 then
                Network.connect network a b ~latency_ms)
            ps)
        ps)
    (Catalog.mappings catalog);
  network
