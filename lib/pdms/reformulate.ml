(* Reformulation as a rule-goal tree, one goal group at a time.

   The query's subgoals are split into goal groups by MiniCon's rule: a
   view covers two subgoals in one match only when a variable they share
   maps to an existential variable of the view. So when every variable
   of every LAV view occurs in its head, each subgoal is its own group;
   otherwise the groups are the connected components of the subgoals'
   shared-variable graph (subgoals sharing no variable never need one
   joint match). Each group is searched breadth-first on its own (GAV
   unfolding and MiniCon interleaved, as below) with every variable it
   shares with the head or another group made distinguished, swept and
   minimised, and capped at [max_rewritings]; the answer is the product
   of the groups' unions, expanded in full. So a join pays for the sum
   of its subgoals' alternatives, not their product. A query with one
   group runs the search on the query itself. *)

open Cq

(* Metrics registered once at load; increments are batched per phase. *)
let m_runs = Obs.Metrics.counter "pdms.reformulate.runs"
let m_expanded = Obs.Metrics.counter "pdms.reformulate.nodes_expanded"
let m_emitted = Obs.Metrics.counter "pdms.reformulate.emitted"
let m_pruned_history = Obs.Metrics.counter "pdms.reformulate.pruned_history"
let m_pruned_visited = Obs.Metrics.counter "pdms.reformulate.pruned_visited"
let m_pruned_subsumed = Obs.Metrics.counter "pdms.reformulate.pruned_subsumed"
let m_pruned_depth = Obs.Metrics.counter "pdms.reformulate.pruned_depth"
let m_lav = Obs.Metrics.counter "pdms.reformulate.lav_invocations"
let m_sweeps = Obs.Metrics.counter "pdms.reformulate.sweep.runs"
let m_sweep_tested = Obs.Metrics.counter "pdms.reformulate.sweep.pairs_tested"
let m_sweep_skipped =
  Obs.Metrics.counter "pdms.reformulate.sweep.pairs_sig_skipped"
let m_sweep_killed = Obs.Metrics.counter "pdms.reformulate.sweep.killed"

type stats = {
  nodes_expanded : int;
  emitted : int;
  pruned_history : int;
  pruned_visited : int;
  pruned_subsumed : int;
  pruned_depth : int;
  lav_invocations : int;
  truncated : bool;
}

type outcome = { rewritings : Query.t list; stats : stats }

module Iset = Set.Make (Int)

(* A body atom of a rule-goal tree node: the set of mapping ids on its
   own derivation path (the per-goal path of the rule-goal tree —
   sibling subgoals may legally traverse the same mapping), and whether
   it skips GAV unfolding to wait for the LAV step. *)
type goal = { atom : Atom.t; hist : Iset.t; lav_only : bool }

(* A node of the rule-goal tree: a partial reformulation. *)
type node = { head : Atom.t; body : goal list }

let plain node = Query.make node.head (List.map (fun g -> g.atom) node.body)

(* Canonical variable names, memoized: the first 256 are shared strings
   so alpha-normalisation allocates no name for typical node widths. *)
let canon_names = Array.init 256 (fun i -> "v" ^ string_of_int i)

let canon_name i = if i < 256 then canon_names.(i) else "v" ^ string_of_int i

(* Alpha-normalise the node: rename variables in first-occurrence order,
   then sort (atom, history) pairs by the rendered atom. Returns the
   atoms-only key plus the tag vector in that order. Constants render
   type-exactly ({!Relalg.Value.add_key}), so goals differing only in a
   constant's type keep distinct keys; an atom waiting for the LAV step
   renders with a leading ['^'], so it never shares a key with the same
   atom still open to GAV unfolding. All rendering goes through one
   scratch [Buffer] — the seed built the key from repeated
   [Atom.to_string] + [String.concat] allocations. *)
let canonical node =
  let mapping = Hashtbl.create 16 in
  let canon_var x =
    match Hashtbl.find_opt mapping x with
    | Some x' -> x'
    | None ->
        let x' = canon_name (Hashtbl.length mapping) in
        Hashtbl.replace mapping x x';
        x'
  in
  let buf = Buffer.create 128 in
  let render_atom (a : Atom.t) =
    Buffer.add_string buf a.Atom.pred;
    Buffer.add_char buf '(';
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_string buf ", ";
        match t with
        | Term.Var x -> Buffer.add_string buf (canon_var x)
        | Term.Const v ->
            Buffer.add_char buf '\'';
            Relalg.Value.add_key buf v)
      a.Atom.args;
    Buffer.add_char buf ')'
  in
  (* Renaming is first-occurrence order over head then body, so the head
     must be rendered first to seed the mapping. *)
  render_atom node.head;
  let head_len = Buffer.length buf in
  let tagged =
    List.map
      (fun g ->
        let start = Buffer.length buf in
        if g.lav_only then Buffer.add_char buf '^';
        render_atom g.atom;
        let s = Buffer.sub buf start (Buffer.length buf - start) in
        (s, g.hist))
      node.body
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let head = Buffer.sub buf 0 head_len in
  Buffer.clear buf;
  Buffer.add_string buf head;
  Buffer.add_string buf " :- ";
  List.iteri
    (fun i (s, _) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf s)
    tagged;
  (Buffer.contents buf, List.map snd tagged)

let identity_view pred arity =
  let args = List.init arity (fun i -> Term.v (Printf.sprintf "I%d" i)) in
  Query.make (Atom.make pred args) [ Atom.make pred args ]

(* Unfold one goal with a rule; rule-body atoms inherit the goal's
   history extended with the rule's mapping id. *)
let expand_goal ~fresh node goal extra (rule : Query.t) =
  let rule = Query.freshen ~suffix:(fresh ()) rule in
  match Subst.unify_atom Subst.empty goal.atom rule.Query.head with
  | None -> None
  | Some mgu ->
      let hist =
        match extra with Some id -> Iset.add id goal.hist | None -> goal.hist
      in
      let body =
        List.concat_map
          (fun g ->
            if g == goal then
              List.map
                (fun b -> { atom = Subst.apply_atom mgu b; hist; lav_only = false })
                rule.Query.body
            else [ { g with atom = Subst.apply_atom mgu g.atom } ])
          node.body
      in
      Some { head = Subst.apply_atom mgu node.head; body }

(* Drop repeated body atoms, keeping the first occurrence in order.
   Hash-set membership on the atom itself — the seed's [List.exists]
   over the seen-prefix was quadratic in body length. *)
let dedupe_body node =
  let seen = Hashtbl.create 16 in
  let body =
    List.filter
      (fun g ->
        if Hashtbl.mem seen g.atom then false
        else begin
          Hashtbl.replace seen g.atom ();
          true
        end)
      node.body
  in
  { node with body }

(* Emit-time subsumption index: rewritings bucketed by signature, with
   O(1) bucket lookup by signature key. [subsumed_by_any] visits only
   buckets whose signature passes the necessary-condition prefilter, so
   the homomorphism search runs on compatible candidates only. *)
module Sub_index = struct
  type bucket = { signature : Signature.t; mutable members : Query.t list }

  type t = {
    by_key : (string, bucket) Hashtbl.t;
    mutable buckets : bucket list;
  }

  let create () = { by_key = Hashtbl.create 64; buckets = [] }

  let subsumed_by_any t (q : Query.t) =
    let sub = Signature.of_query q in
    List.exists
      (fun b ->
        Signature.compatible ~sub ~super:b.signature
        && List.exists
             (fun e ->
               Containment.contained_in_with ~sub ~super:b.signature q e)
             b.members)
      t.buckets

  let add t (q : Query.t) =
    let signature = Signature.of_query q in
    let key = Signature.key signature in
    match Hashtbl.find_opt t.by_key key with
    | Some b -> b.members <- q :: b.members
    | None ->
        let b = { signature; members = [ q ] } in
        Hashtbl.replace t.by_key key b;
        t.buckets <- b :: t.buckets
end

(* The final all-pairs subsumption sweep, exposed for benchmarking.
   Scans pairs in the same order as the seed's nested loop and applies
   the identical keep-flag rules, so the surviving set and its order are
   byte-identical to the seed — the signature prefilter only skips pairs
   whose containment test is guaranteed [false].

   [jobs > 1] precomputes the containment matrix for every
   signature-compatible ordered pair in parallel (containment is pure,
   queries are immutable), then replays the same sequential keep loop
   against the matrix; the result is identical for every [jobs]. *)
let subsumption_sweep ?(exec = Exec.default) (rewritings : Query.t list) =
  let jobs = exec.Exec.jobs in
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "sweep" @@ fun () ->
  let arr = Array.of_list rewritings in
  let n = Array.length arr in
  if n <= 1 then begin
    Obs.Trace.attr_i trace "input" n;
    Obs.Trace.attr_i trace "kept" n;
    rewritings
  end
  else begin
    (* Containment-test accounting is batched in plain locals — the inner
       loop runs at ~tens of ns per pair, so per-pair atomics would blow
       the E15 overhead budget — and flushed to Obs.Metrics once below. *)
    let tested = ref 0 in
    let skipped = ref 0 in
    let sigs = Array.map Signature.of_query arr in
    let compat i j = Signature.compatible ~sub:sigs.(i) ~super:sigs.(j) in
    let keep = Array.make n true in
    let decide contained =
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && keep.(i) && keep.(j) && contained i j then
            if contained j i then (
              if j > i then keep.(j) <- false else keep.(i) <- false)
            else keep.(i) <- false
        done
      done
    in
    if jobs <= 1 then
      decide (fun i j ->
          if compat i j then begin
            Stdlib.incr tested;
            Containment.contained_in_with ~sub:sigs.(i) ~super:sigs.(j)
              arr.(i) arr.(j)
          end
          else begin
            Stdlib.incr skipped;
            false
          end)
    else begin
      (* Dense n*n matrix of verdicts over compatible pairs; incompatible
         pairs are [false] by the prefilter's soundness. Work is sharded
         by row blocks to keep per-task granularity coarse. *)
      let matrix = Array.make (n * n) false in
      let rows = List.init n Fun.id in
      let blocks = Util.Pool.chunk (max 1 (n / (jobs * 4))) rows in
      let results =
        Util.Pool.map jobs
          (fun block ->
            List.map
              (fun i ->
                let verdicts = Array.make n false in
                let row_tested = ref 0 in
                for j = 0 to n - 1 do
                  if i <> j && compat i j then begin
                    Stdlib.incr row_tested;
                    verdicts.(j) <-
                      Containment.contained_in_with ~sub:sigs.(i)
                        ~super:sigs.(j) arr.(i) arr.(j)
                  end
                done;
                (i, verdicts, !row_tested))
              block)
          blocks
      in
      List.iter
        (List.iter (fun (i, verdicts, row_tested) ->
             Array.blit verdicts 0 matrix (i * n) n;
             tested := !tested + row_tested))
        results;
      skipped := (n * (n - 1)) - !tested;
      decide (fun i j -> matrix.((i * n) + j))
    end;
    let kept = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 keep in
    Obs.Metrics.incr m_sweeps;
    Obs.Metrics.add m_sweep_tested !tested;
    Obs.Metrics.add m_sweep_skipped !skipped;
    Obs.Metrics.add m_sweep_killed (n - kept);
    Obs.Trace.attr_i trace "input" n;
    Obs.Trace.attr_i trace "kept" kept;
    Obs.Trace.attr_i trace "pairs_tested" !tested;
    Obs.Trace.attr_i trace "pairs_sig_skipped" !skipped;
    List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)
  end

(* One breadth-first rule-goal search over [q]: the rewritings, swept
   and minimised, capped at [max_rewritings], and the search's stats. *)
let search exec catalog (q : Query.t) =
  let pruning = exec.Exec.pruning in
  let nodes_expanded = ref 0 in
  let emitted = ref [] in
  let emitted_count = ref 0 in
  let sub_index = Sub_index.create () in
  let pruned_history = ref 0 in
  let pruned_visited = ref 0 in
  let pruned_subsumed = ref 0 in
  let pruned_depth = ref 0 in
  let lav_invocations = ref 0 in
  (* Goal memo: alpha-normalised CQ keys already enqueued (ignoring
     histories). Breadth-first order makes the first visit the
     shortest-path one, so its history is the most permissive in
     practice — this is the aggressive Piazza heuristic. *)
  let goal_memo : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  (* Dominance store: key -> tag vectors already explored. A new node is
     pruned when an explored vector is pointwise a subset of its own
     (the earlier node could do strictly more). *)
  let visited : (string, Iset.t list list) Hashtbl.t = Hashtbl.create 256 in
  let fresh_counter = ref 0 in
  let fresh () =
    incr fresh_counter;
    Printf.sprintf "~g%d" !fresh_counter
  in
  let emit c =
    let c = Minimize.remove_duplicate_atoms c in
    let c = if pruning.Exec.use_minimize then Minimize.minimize c else c in
    if
      pruning.Exec.use_subsumption && Sub_index.subsumed_by_any sub_index c
    then incr pruned_subsumed
    else begin
      emitted := c :: !emitted;
      incr emitted_count;
      if pruning.Exec.use_subsumption then Sub_index.add sub_index c
    end
  in
  let is_pending g = not (Catalog.is_stored catalog g.atom.Atom.pred) in
  let queue : (node * int) Queue.t = Queue.create () in
  let push node depth =
    let node = dedupe_body node in
    if depth > pruning.Exec.max_depth then incr pruned_depth
    else if not (List.exists is_pending node.body) then
      (* Complete: enqueue for emission (kept in queue to preserve
         counting uniformity). *)
      Queue.add (node, depth) queue
    else begin
      let key, tags = canonical node in
      let memo_pruned =
        pruning.Exec.use_goal_memo
        &&
        if Hashtbl.mem goal_memo key then true
        else begin
          Hashtbl.replace goal_memo key ();
          false
        end
      in
      if memo_pruned then incr pruned_visited
      else
        let dominance_pruned =
          pruning.Exec.use_visited
          &&
          let stored = Option.value ~default:[] (Hashtbl.find_opt visited key) in
          if
            List.exists
              (fun prev ->
                List.length prev = List.length tags
                && List.for_all2 Iset.subset prev tags)
              stored
          then true
          else begin
            Hashtbl.replace visited key (tags :: stored);
            false
          end
        in
        if dominance_pruned then incr pruned_visited
        else Queue.add (node, depth) queue
    end
  in
  let process node depth =
    incr nodes_expanded;
    let pending = List.filter is_pending node.body in
    if pending = [] then emit (plain node)
    else begin
      (* Step 1: GAV — unfold the first pending atom that has rules
         (definitional mappings and GLAV mapping predicates) and is not
         waiting for the LAV step. *)
      let gav =
        List.find_opt
          (fun g ->
            (not g.lav_only) && Catalog.has_rules catalog g.atom.Atom.pred)
          pending
      in
      match gav with
      | Some goal ->
          List.iter
            (fun (mid, rule) ->
              let blocked =
                pruning.Exec.use_history
                &&
                match mid with Some id -> Iset.mem id goal.hist | None -> false
              in
              if blocked then incr pruned_history
              else
                match expand_goal ~fresh node goal mid rule with
                | None -> ()
                | Some node' -> push node' (depth + 1))
            (Catalog.rules_for catalog goal.atom.Atom.pred);
          (* The rules define the atom's relation only in part when some
             view reads it too (its own storage, an inclusion or equality
             into it): one more child leaves the atom to MiniCon. *)
          if Catalog.in_view_body catalog goal.atom.Atom.pred then
            push
              {
                node with
                body =
                  List.map
                    (fun g -> if g == goal then { g with lav_only = true } else g)
                    node.body;
              }
              (depth + 1)
      | None ->
          (* Step 2: LAV — answer the whole query with the catalog's
             views (MiniCon); identity views carry stored atoms through
             unchanged. View atoms inherit the union of the pending
             atoms' histories (conservative). *)
          incr lav_invocations;
          let union_hist =
            List.fold_left (fun acc g -> Iset.union acc g.hist) Iset.empty pending
          in
          let usable_views =
            List.filter_map
              (fun (mid, view) ->
                match mid with
                | Some id
                  when pruning.Exec.use_history && Iset.mem id union_hist ->
                    incr pruned_history;
                    None
                | Some _ | None -> Some view)
              (Catalog.views catalog)
          in
          let id_views =
            node.body
            |> List.filter_map (fun g ->
                   if is_pending g then None
                   else Some (g.atom.Atom.pred, Atom.arity g.atom))
            |> List.sort_uniq compare
            |> List.map (fun (p, n) -> identity_view p n)
          in
          let rewritings, _ =
            Rewrite.Minicon.rewrite ~views:(usable_views @ id_views) (plain node)
          in
          List.iter
            (fun (r : Query.t) ->
              push
                {
                  head = r.Query.head;
                  body =
                    List.map
                      (fun atom -> { atom; hist = union_hist; lav_only = false })
                      r.Query.body;
                }
                (depth + 1))
            rewritings
    end
  in
  push
    {
      head = q.Query.head;
      body =
        List.map
          (fun atom -> { atom; hist = Iset.empty; lav_only = false })
          q.Query.body;
    }
    0;
  while
    (not (Queue.is_empty queue)) && !emitted_count < pruning.Exec.max_rewritings
  do
    let node, depth = Queue.pop queue in
    process node depth
  done;
  let rewritings = List.rev !emitted in
  (* Final subsumption sweep: earlier emissions may be contained in
     later, more general ones (the incremental check only looks
     backwards). Equivalent pairs keep their first representative. *)
  let rewritings =
    if pruning.Exec.use_subsumption then subsumption_sweep ~exec rewritings
    else rewritings
  in
  ( rewritings,
    {
      nodes_expanded = !nodes_expanded;
      emitted = List.length rewritings;
      pruned_history = !pruned_history;
      pruned_visited = !pruned_visited;
      pruned_subsumed = !pruned_subsumed;
      pruned_depth = !pruned_depth;
      lav_invocations = !lav_invocations;
      (* The loop stops at the cap or on an empty queue: nodes left
         queued may hold rewritings the cap dropped. *)
      truncated = not (Queue.is_empty queue);
    } )

(* The goal groups of [q]'s distinct subgoals, each in body order,
   listed by their first subgoal (see the header for the rule). *)
let goal_groups catalog (q : Query.t) =
  let q = Minimize.remove_duplicate_atoms q in
  if Catalog.distinguished_views catalog then List.map (fun a -> [ a ]) q.Query.body
  else begin
    let body = Array.of_list q.Query.body in
    (* Label each subgoal with the first subgoal of its component. *)
    let comp = Array.init (Array.length body) Fun.id in
    let rec root i = if comp.(i) = i then i else root comp.(i) in
    Array.iteri
      (fun i (a : Atom.t) ->
        let vars = Atom.vars a in
        for j = 0 to i - 1 do
          if List.exists (fun x -> List.mem x (Atom.vars body.(j))) vars then begin
            let ri = root i and rj = root j in
            comp.(max ri rj) <- min ri rj
          end
        done)
      body;
    let groups = Array.make (Array.length body) [] in
    Array.iteri (fun i a -> groups.(root i) <- a :: groups.(root i)) body;
    Array.to_list groups |> List.filter (( <> ) []) |> List.map List.rev
  end

(* One group's rewriting, ready to join: renamed apart from the other
   groups' by [suffix], its head unified with the group's shared
   variables. [body] speaks of the query's variables; [binds] holds
   what the head forced on them (a constant, or two of them equated)
   and is empty in the common case, where a product member is a plain
   concatenation (unifying per member made a 110,592-member product
   ~4x slower to expand). *)
type part = { body : Atom.t list; binds : (Term.t * Term.t) list }

let part ~suffix shared (r : Query.t) =
  let r = Query.freshen ~suffix r in
  (* The group head is distinct variables, so the heads always unify;
     rewriting variables bind to the shared ones where they can. *)
  let s =
    Option.get
      (Subst.unify_atom Subst.empty r.Query.head
         (Atom.make r.Query.head.Atom.pred shared))
  in
  {
    body = List.map (Subst.apply_atom s) r.Query.body;
    binds =
      List.filter_map
        (fun y ->
          let t = Subst.walk s y in
          if Term.equal t y then None else Some (y, t))
        shared;
  }

(* The product of the groups' unions, first group outermost. A member
   whose binds clash (two constants for one variable) is empty and is
   skipped. *)
let product (q : Query.t) parts =
  let members = ref [] in
  let rec go binds bodies = function
    | [] ->
        let member = Query.make q.Query.head (List.concat (List.rev bodies)) in
        let member =
          match binds with
          | [] -> Some member
          | _ ->
              List.fold_left
                (fun s (y, t) -> Option.bind s (fun s -> Subst.unify_term s y t))
                (Some Subst.empty) binds
              |> Option.map (fun s -> Query.apply s member)
        in
        Option.iter
          (fun m -> members := Minimize.remove_duplicate_atoms m :: !members)
          member
    | group :: rest ->
        List.iter (fun p -> go (p.binds @ binds) (p.body :: bodies) rest) group
  in
  go [] [] parts;
  List.rev !members

let add_stats a b =
  {
    nodes_expanded = a.nodes_expanded + b.nodes_expanded;
    emitted = a.emitted + b.emitted;
    pruned_history = a.pruned_history + b.pruned_history;
    pruned_visited = a.pruned_visited + b.pruned_visited;
    pruned_subsumed = a.pruned_subsumed + b.pruned_subsumed;
    pruned_depth = a.pruned_depth + b.pruned_depth;
    lav_invocations = a.lav_invocations + b.lav_invocations;
    truncated = a.truncated || b.truncated;
  }

(* Search group [i] of [groups] with the variables it shares with the
   head or another group as its head, and ready its rewritings to join. *)
let search_group exec catalog (q : Query.t) groups i group =
  let vars atoms = Query.body_vars (Query.make q.Query.head atoms) in
  let elsewhere =
    Atom.vars q.Query.head
    @ List.concat_map vars (List.filteri (fun j _ -> j <> i) groups)
  in
  let shared =
    List.filter (fun x -> List.mem x elsewhere) (vars group) |> List.map Term.v
  in
  let rewritings, stats =
    search exec catalog (Query.make (Atom.make q.Query.head.Atom.pred shared) group)
  in
  (List.map (part ~suffix:(Printf.sprintf "~j%d" i) shared) rewritings, stats)

let reformulate ?(exec = Exec.default) catalog (q : Query.t) =
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "reformulate" @@ fun () ->
  let rewritings, stats =
    match goal_groups catalog q with
    | [] | [ _ ] -> search exec catalog q
    | groups ->
        let parts, stats =
          List.split (List.mapi (search_group exec catalog q groups) groups)
        in
        let rewritings = product q parts in
        let stats = List.fold_left add_stats (List.hd stats) (List.tl stats) in
        (rewritings, { stats with emitted = List.length rewritings })
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_expanded stats.nodes_expanded;
  Obs.Metrics.add m_emitted stats.emitted;
  Obs.Metrics.add m_pruned_history stats.pruned_history;
  Obs.Metrics.add m_pruned_visited stats.pruned_visited;
  Obs.Metrics.add m_pruned_subsumed stats.pruned_subsumed;
  Obs.Metrics.add m_pruned_depth stats.pruned_depth;
  Obs.Metrics.add m_lav stats.lav_invocations;
  Obs.Trace.attr_i trace "expanded" stats.nodes_expanded;
  Obs.Trace.attr_i trace "rewritings" stats.emitted;
  Obs.Trace.attr_i trace "pruned_history" stats.pruned_history;
  Obs.Trace.attr_i trace "pruned_visited" stats.pruned_visited;
  Obs.Trace.attr_i trace "pruned_subsumed" stats.pruned_subsumed;
  Obs.Trace.attr_i trace "pruned_depth" stats.pruned_depth;
  Obs.Trace.attr_i trace "lav_invocations" stats.lav_invocations;
  { rewritings; stats }

let pp_stats fmt s =
  Format.fprintf fmt
    "expanded=%d emitted=%d pruned(history=%d visited=%d subsumed=%d depth=%d) lav=%d%s"
    s.nodes_expanded s.emitted s.pruned_history s.pruned_visited
    s.pruned_subsumed s.pruned_depth s.lav_invocations
    (if s.truncated then " truncated" else "")
