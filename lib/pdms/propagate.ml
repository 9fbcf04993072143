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

let delta_bytes (u : Updategram.t) =
  max 1 (Updategram.size u) * Distributed.bytes_per_tuple

(* Ship one updategram to a replica host over the (optional) simulated
   network.  Without a network the delivery is assumed instantaneous
   and always succeeds — the pre-network behaviour. *)
let ship ?network ~exec ~prng (u : Updategram.t) r =
  match network with
  | None -> true
  | Some net ->
      (* A stored relation's owner is the source site of its deltas. *)
      let src =
        Option.value ~default:r.at (Distributed.owner_of_pred u.Updategram.rel)
      in
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
      (* Maintenance below mutates tuple by tuple, but the net database
         change is exactly the effective delta, and the per-tuple order
         (deletes first, then inserts) matches one Relation.apply of it —
         so the durability tee records a single replayable write-ahead
         entry. *)
      (match tee with
      | Some f ->
          let d = Updategram.effective_delta rel u in
          if not (Relalg.Relation.Delta.is_empty d) then
            f ~rel:u.Updategram.rel d
      | None -> ());
      (* The database is shared by every replica, so the mutation happens
         exactly once here, with each reachable dependent view maintained
         around it. *)
      View_maintenance.maintain
        (List.concat_map (fun r -> r.views) converged)
        rel u;
      Obs.Metrics.add m_converged (List.length converged);
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
        Obs.Metrics.incr m_converged
      end;
      delivered

let replicas t = List.map (fun r -> (r.name, r.at)) t.registry
