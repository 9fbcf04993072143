type replica = {
  name : string;
  at : string;
  views : View_maintenance.t list;  (* one per rewriting *)
  reads : string list;
  mutable lag : Updategram.t list;  (* undelivered grams, newest first *)
}

type t = {
  catalog : Catalog.t;
  db : Relalg.Database.t;  (* the shared global database *)
  mutable registry : replica list;
}

let m_converged = Obs.Metrics.counter "pdms.delta.replicas_converged"

let create catalog = { catalog; db = Catalog.global_db catalog; registry = [] }

let distinct_tuples views =
  let seen = Hashtbl.create 64 in
  List.concat_map View_maintenance.tuples views
  |> List.filter (fun tuple ->
         if Hashtbl.mem seen tuple then false
         else begin
           Hashtbl.replace seen tuple ();
           true
         end)

let materialise t ~name ~at ?exec query =
  if List.exists (fun r -> String.equal r.name name) t.registry then
    invalid_arg ("Propagate.materialise: duplicate replica " ^ name);
  let outcome = Reformulate.reformulate ?exec t.catalog query in
  let views =
    List.map (View_maintenance.create ?exec t.db) outcome.Reformulate.rewritings
  in
  let reads =
    List.concat_map Cq.Query.body_preds outcome.Reformulate.rewritings
    |> List.sort_uniq String.compare
  in
  t.registry <- { name; at; views; reads; lag = [] } :: t.registry;
  List.length (distinct_tuples views)

let find t name =
  match List.find_opt (fun r -> String.equal r.name name) t.registry with
  | Some r -> r
  | None -> invalid_arg ("Propagate: unknown replica " ^ name)

let tuples t ~name = distinct_tuples (find t name).views
let cardinality t ~name = List.length (tuples t ~name)

(* Shipping cost model shared with {!Distributed}: a flat per-tuple
   estimate. *)
let bytes_per_tuple = 64
let delta_bytes (u : Updategram.t) = max 1 (Updategram.size u) * bytes_per_tuple

(* Stored relations are named "<peer>.<rel>!" — the prefix is the
   natural source site for the relation's deltas. *)
let owner_of_pred pred =
  match String.index_opt pred '.' with
  | Some i when i > 0 -> Some (String.sub pred 0 i)
  | Some _ | None -> None

(* Ship one updategram to a replica host over the (optional) simulated
   network.  Without a network the delivery is assumed instantaneous
   and always succeeds — the pre-network behaviour. *)
let ship ?network ~exec ~prng (u : Updategram.t) r =
  match network with
  | None -> true
  | Some net ->
      let src = Option.value ~default:r.at (owner_of_pred u.Updategram.rel) in
      if String.equal src r.at then true
      else
        let o =
          Network.send_with_retry net ~retry:exec.Exec.retry ~prng ~src
            ~dst:r.at ~size:(delta_bytes u)
        in
        Result.is_ok o.Network.result

let default_prng () = Util.Prng.create 2003

let push ?(exec = Exec.default) ?network ?prng ?tee t (u : Updategram.t) =
  let prng = match prng with Some p -> p | None -> default_prng () in
  let dependents =
    List.filter (fun r -> List.mem u.Updategram.rel r.reads) t.registry
  in
  match Relalg.Database.find_opt t.db u.Updategram.rel with
  | None -> []
  | Some rel ->
      Obs.Trace.span exec.Exec.trace "delta.push" @@ fun () ->
      (* Decide deliverability first: a replica whose delta transfer
         fails cannot maintain its views around the mutation below, so
         it queues the gram and goes stale until {!reconcile}. *)
      let converged, lagging =
        List.partition (ship ?network ~exec ~prng u) dependents
      in
      List.iter (fun r -> r.lag <- u :: r.lag) lagging;
      let live_views = List.concat_map (fun r -> r.views) converged in
      let each_view f = List.iter f live_views in
      (* The incremental branch below mutates tuple by tuple, but the
         net database change is exactly the effective delta, and the
         per-tuple order (deletes first, then inserts) matches one
         Relation.apply of it — so the durability tee records a single
         replayable write-ahead entry either way. *)
      (match tee with
      | Some f when exec.Exec.incremental ->
          let d = Updategram.effective_delta rel u in
          if not (Relalg.Relation.Delta.is_empty d) then
            f ~rel:u.Updategram.rel d
      | Some _ | None -> ());
      if not exec.Exec.incremental then begin
        (* Baseline: one delta application to the shared database, then
           recompute every reachable dependent view. *)
        Updategram.apply ~exec ?tee t.db u;
        each_view View_maintenance.refresh
      end
      else begin
        (* The database is shared by every replica, so the mutation
           happens exactly once here; each reachable dependent view
           maintains its counts around it (deletes while the tuple is
           still present, inserts after it lands). *)
        List.iter
          (fun tuple ->
            if Relalg.Relation.mem rel tuple then begin
              each_view (fun vm ->
                  View_maintenance.maintain_delete vm ~rel:u.Updategram.rel
                    tuple);
              Relalg.Relation.apply rel (Relalg.Relation.Delta.remove tuple)
            end)
          u.Updategram.deletes;
        List.iter
          (fun tuple ->
            if not (Relalg.Relation.mem rel tuple) then begin
              Relalg.Relation.apply rel (Relalg.Relation.Delta.add tuple);
              each_view (fun vm ->
                  View_maintenance.maintain_insert vm ~rel:u.Updategram.rel
                    tuple)
            end)
          u.Updategram.inserts
      end;
      if exec.Exec.metrics then
        List.iter (fun _ -> Obs.Metrics.incr m_converged) converged;
      List.map (fun r -> (r.name, r.at)) converged

let lagging t =
  List.filter_map
    (fun r ->
      match r.lag with [] -> None | lag -> Some (r.name, List.length lag))
    t.registry
  |> List.sort compare

let reconcile ?(exec = Exec.default) ?network ?prng t ~name =
  let r = find t name in
  match r.lag with
  | [] -> true
  | lag ->
      let prng = match prng with Some p -> p | None -> default_prng () in
      Obs.Trace.span exec.Exec.trace "delta.reconcile" @@ fun () ->
      (* Resend the backlog.  The shared database has long moved on, so
         a successful catch-up refreshes the views from the current
         state instead of replaying stale grams — honest convergence. *)
      let delivered =
        List.for_all (fun u -> ship ?network ~exec ~prng u r) (List.rev lag)
      in
      if delivered then begin
        List.iter View_maintenance.refresh r.views;
        r.lag <- [];
        if exec.Exec.metrics then Obs.Metrics.incr m_converged
      end;
      delivered

let replicas t = List.map (fun r -> (r.name, r.at)) t.registry
