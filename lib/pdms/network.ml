type error =
  | Peer_down of string
  | No_route of string * string
  | Link_drop of string * string
  | Timed_out of string * string * float

let error_to_string = function
  | Peer_down p -> Printf.sprintf "peer %s is down" p
  | No_route (a, b) -> Printf.sprintf "no route from %s to %s" a b
  | Link_drop (a, b) -> Printf.sprintf "message %s -> %s lost in transit" a b
  | Timed_out (a, b, deadline) ->
      Printf.sprintf "delivery %s -> %s missed the %.1fms deadline" a b deadline

type t = {
  peer_tbl : (string, unit) Hashtbl.t;
  (* Undirected adjacency, one entry per direction; at most one edge per
     peer pair (connect keeps the lowest latency). *)
  adjacency : (string, (string * float) list) Hashtbl.t;
  mutable messages : int;
  mutable version : int;  (* bumped on any topology or fault change *)
  down : (string, unit) Hashtbl.t;
  cut : (string * string, unit) Hashtbl.t;
  spikes : (string * string, float) Hashtbl.t;
  mutable flaky : (float * Util.Prng.t) option;
  (* Per-source route tables, valid while [version] is unchanged. *)
  routes :
    (string, int * ((string, float) Hashtbl.t * (string, int) Hashtbl.t))
    Hashtbl.t;
}

let m_sends = Obs.Metrics.counter "pdms.net.sends"
let m_send_failures = Obs.Metrics.counter "pdms.net.send_failures"
let m_retries = Obs.Metrics.counter "pdms.net.retries"
let m_gave_up = Obs.Metrics.counter "pdms.net.gave_up"
let m_backoff_ms = Obs.Metrics.histogram "pdms.net.backoff_ms"

let create () =
  {
    peer_tbl = Hashtbl.create 16;
    adjacency = Hashtbl.create 16;
    messages = 0;
    version = 0;
    down = Hashtbl.create 4;
    cut = Hashtbl.create 4;
    spikes = Hashtbl.create 4;
    flaky = None;
    routes = Hashtbl.create 16;
  }

let bump t = t.version <- t.version + 1
let link_key a b = if String.compare a b <= 0 then (a, b) else (b, a)

let add_peer t name =
  if not (Hashtbl.mem t.peer_tbl name) then begin
    Hashtbl.replace t.peer_tbl name ();
    bump t
  end

let neighbours_raw t p =
  Option.value ~default:[] (Hashtbl.find_opt t.adjacency p)

let set_adjacent t a b latency_ms =
  Hashtbl.replace t.adjacency a
    ((b, latency_ms)
    :: List.filter (fun (x, _) -> not (String.equal x b)) (neighbours_raw t a))

let connect t a b ~latency_ms =
  add_peer t a;
  add_peer t b;
  if not (String.equal a b) then
    match List.assoc_opt b (neighbours_raw t a) with
    | Some existing when existing <= latency_ms -> ()
    | _ ->
        set_adjacent t a b latency_ms;
        set_adjacent t b a latency_ms;
        bump t

let peers t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.peer_tbl []
  |> List.sort String.compare

let of_topology topo ~names ~base_latency_ms =
  if List.length names < topo.Topology.n then
    invalid_arg "Network.of_topology: not enough names";
  let arr = Array.of_list names in
  let t = create () in
  Array.iter (add_peer t) (Array.sub arr 0 topo.Topology.n);
  List.iter
    (fun (a, b) -> connect t arr.(a) arr.(b) ~latency_ms:base_latency_ms)
    topo.Topology.edges;
  t

(* Fault-aware neighbour view: down peers and cut links are invisible,
   latency spikes inflate the edge weight. *)
let neighbours t p =
  List.filter_map
    (fun (q, l) ->
      if Hashtbl.mem t.down q || Hashtbl.mem t.cut (link_key p q) then None
      else
        Some
          ( q,
            l
            +. Option.value ~default:0.0
                 (Hashtbl.find_opt t.spikes (link_key p q)) ))
    (neighbours_raw t p)

(* Dijkstra over the small peer graph, memoised per source until the
   topology version moves. *)
let shortest t src =
  match Hashtbl.find_opt t.routes src with
  | Some (v, tables) when v = t.version -> tables
  | _ ->
      let dist = Hashtbl.create 16 in
      let hops = Hashtbl.create 16 in
      if not (Hashtbl.mem t.down src) then begin
        Hashtbl.replace dist src 0.0;
        Hashtbl.replace hops src 0;
        let visited = Hashtbl.create 16 in
        let rec loop () =
          (* Pick the unvisited peer with smallest tentative distance. *)
          let best =
            Hashtbl.fold
              (fun p d acc ->
                if Hashtbl.mem visited p then acc
                else
                  match acc with
                  | None -> Some (p, d)
                  | Some (_, bd) -> if d < bd then Some (p, d) else acc)
              dist None
          in
          match best with
          | None -> ()
          | Some (p, d) ->
              Hashtbl.replace visited p ();
              List.iter
                (fun (q, l) ->
                  let nd = d +. l in
                  let better =
                    match Hashtbl.find_opt dist q with
                    | None -> true
                    | Some old -> nd < old
                  in
                  if better then begin
                    Hashtbl.replace dist q nd;
                    Hashtbl.replace hops q (Hashtbl.find hops p + 1)
                  end)
                (neighbours t p);
              loop ()
        in
        loop ()
      end;
      Hashtbl.replace t.routes src (t.version, (dist, hops));
      (dist, hops)

let latency t a b =
  if Hashtbl.mem t.down a || Hashtbl.mem t.down b then None
  else
    let dist, _ = shortest t a in
    Hashtbl.find_opt dist b

let hops t a b =
  if Hashtbl.mem t.down a || Hashtbl.mem t.down b then None
  else
    let _, hops = shortest t a in
    Hashtbl.find_opt hops b

(* 1 KB costs 1 ms of transfer on top of propagation. *)
let transfer_ms size = float_of_int size /. 1024.0

let cost t ~src ~dst ~size =
  match latency t src dst with
  | None -> None
  | Some l -> Some (l +. transfer_ms size)

let send t ~src ~dst ~size =
  Obs.Metrics.incr m_sends;
  let fail e =
    Obs.Metrics.incr m_send_failures;
    Error e
  in
  if Hashtbl.mem t.down src then fail (Peer_down src)
  else if Hashtbl.mem t.down dst then fail (Peer_down dst)
  else
    match latency t src dst with
    | None -> fail (No_route (src, dst))
    | Some l -> (
        match t.flaky with
        | Some (p, prng) when Util.Prng.bernoulli prng p ->
            fail (Link_drop (src, dst))
        | _ ->
            t.messages <- t.messages + 1;
            Ok (l +. transfer_ms size))

type outcome = {
  result : (float, error) result;
  attempts : int;
  retries : int;
  backoff_ms : float;
  elapsed_ms : float;
}

let send_with_retry t ~(retry : Exec.retry) ~prng ~src ~dst ~size =
  let max_attempts = max 1 retry.Exec.max_attempts in
  let deadline = retry.Exec.timeout_ms in
  let backoff = retry.Exec.backoff in
  let rec go attempt backoff_total elapsed =
    let attempt_result =
      match send t ~src ~dst ~size with
      | Ok ms when ms > deadline -> Error (Timed_out (src, dst, deadline))
      | r -> r
    in
    match attempt_result with
    | Ok ms ->
        {
          result = Ok ms;
          attempts = attempt;
          retries = attempt - 1;
          backoff_ms = backoff_total;
          elapsed_ms = elapsed +. ms;
        }
    | Error e ->
        (* A known-down peer or missing route fails fast; a lost or late
           message is only detected once the deadline passes. *)
        let wait =
          match e with
          | Peer_down _ | No_route _ -> 0.0
          | Link_drop _ | Timed_out _ ->
              if Float.is_finite deadline then deadline else 0.0
        in
        if attempt >= max_attempts then begin
          Obs.Metrics.incr m_gave_up;
          {
            result = Error e;
            attempts = attempt;
            retries = attempt - 1;
            backoff_ms = backoff_total;
            elapsed_ms = elapsed +. wait;
          }
        end
        else begin
          Obs.Metrics.incr m_retries;
          let base =
            backoff.Exec.base_ms
            *. (backoff.Exec.multiplier ** float_of_int (attempt - 1))
          in
          let jittered =
            Float.max 0.0
              (base
              *. (1.0
                 +. (backoff.Exec.jitter *. (Util.Prng.float prng 2.0 -. 1.0))
                 ))
          in
          Obs.Metrics.observe m_backoff_ms jittered;
          go (attempt + 1) (backoff_total +. jittered)
            (elapsed +. wait +. jittered)
        end
  in
  go 1 0.0 0.0

let messages_sent t = t.messages
let reset_counters t = t.messages <- 0

module Fault = struct
  let topology_version t = t.version
  let is_down t p = Hashtbl.mem t.down p

  let fail_peer t p =
    if not (Hashtbl.mem t.down p) then begin
      Hashtbl.replace t.down p ();
      bump t
    end

  let heal_peer t p =
    if Hashtbl.mem t.down p then begin
      Hashtbl.remove t.down p;
      bump t
    end

  let cut_link t a b =
    let k = link_key a b in
    if not (Hashtbl.mem t.cut k) then begin
      Hashtbl.replace t.cut k ();
      bump t
    end

  let restore_link t a b =
    let k = link_key a b in
    if Hashtbl.mem t.cut k then begin
      Hashtbl.remove t.cut k;
      bump t
    end

  let partition t group =
    let in_group p = List.exists (String.equal p) group in
    Hashtbl.iter
      (fun a nbrs ->
        List.iter
          (fun (b, _) ->
            if String.compare a b < 0 && in_group a <> in_group b then
              Hashtbl.replace t.cut (link_key a b) ())
          nbrs)
      t.adjacency;
    bump t

  let spike t a b ~extra_ms =
    Hashtbl.replace t.spikes (link_key a b) extra_ms;
    bump t

  let flaky t ?(seed = 2003) ~p () =
    t.flaky <- (if p <= 0.0 then None else Some (p, Util.Prng.create seed));
    bump t

  let heal t =
    Hashtbl.reset t.down;
    Hashtbl.reset t.cut;
    Hashtbl.reset t.spikes;
    t.flaky <- None;
    bump t
end
