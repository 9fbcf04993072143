(* Reformulation as a rule-goal tree, one goal group at a time.

   The query's subgoals are split into goal groups by MiniCon's rule: a
   view covers two subgoals in one match only when a variable they share
   maps to an existential variable of the view. So when every variable
   of every LAV view occurs in its head, each subgoal is its own group;
   otherwise the groups are the connected components of the subgoals'
   shared-variable graph (subgoals sharing no variable never need one
   joint match). Each group is searched breadth-first on its own (GAV
   unfolding and MiniCon interleaved, as below) with every variable it
   shares with the head or another group made distinguished; its
   emissions are minimised, capped at [max_rewritings] and swept once;
   the answer is the product of the groups' unions, expanded in full.
   So a join pays for the sum of its subgoals' alternatives, not their
   product. A query with one group runs the search on the query
   itself. *)

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
   sibling subgoals may legally traverse the same mapping), whether it
   skips GAV unfolding to wait for the LAV step, and whether its
   predicate is not stored (so reformulation must still replace it). *)
type goal = { atom : Atom.t; hist : Iset.t; lav_only : bool; pending : bool }

(* A node of the rule-goal tree: a partial reformulation. *)
type node = { head : Atom.t; body : goal list }

let plain node = Query.make node.head (List.map (fun g -> g.atom) node.body)

let goal_of catalog hist (atom : Atom.t) =
  let pending = not (Catalog.is_stored catalog atom.Atom.pred) in
  { atom; hist; lav_only = false; pending }

(* The goal-memo key of a node: its atoms with variables numbered in
   first-occurrence order (head first, then the body in order), the
   body atoms sorted. Two nodes share a key iff they are equal up to
   variable renaming and body order. Constants compare type-exactly and
   floats by their bits (every NaN of one sign alike), so goals
   differing only in a constant's type or a zero's sign keep distinct
   keys; an atom waiting for the LAV step never shares a key with the
   same atom still open to GAV unfolding. *)
module Key = struct
  type term = Var of int | Const of Relalg.Value.t
  type atom = { pred : string; lav : bool; args : term list }
  type t = { head : atom; body : atom list }

  let compare_const a b =
    match (a, b) with
    | Relalg.Value.Float x, Relalg.Value.Float y when Float.is_nan x && Float.is_nan y ->
        Bool.compare (Float.sign_bit x) (Float.sign_bit y)
    | Relalg.Value.Float x, Relalg.Value.Float y ->
        Int64.compare (Int64.bits_of_float x) (Int64.bits_of_float y)
    | _ -> Relalg.Value.compare a b

  let compare_term a b =
    match (a, b) with
    | Var i, Var j -> Int.compare i j
    | Const c, Const c' -> compare_const c c'
    | Var _, Const _ -> -1
    | Const _, Var _ -> 1

  let compare_atom a b =
    match String.compare a.pred b.pred with
    | 0 -> (
        match Bool.compare a.lav b.lav with
        | 0 -> List.compare compare_term a.args b.args
        | c -> c)
    | c -> c

  let equal a b =
    compare_atom a.head b.head = 0
    && List.equal (fun x y -> compare_atom x y = 0) a.body b.body

  let hash k =
    let mix h x = (h * 65599) + x in
    let atom h a =
      List.fold_left
        (fun h -> function Var i -> mix h i | Const c -> mix h (Hashtbl.hash c))
        (mix (mix h (Hashtbl.hash a.pred)) (Bool.to_int a.lav))
        a.args
    in
    List.fold_left atom (atom 0 k.head) k.body land max_int

  let of_node (node : node) =
    let names = ref [] and next = ref 0 in
    let rec number x = function
      | [] ->
          names := (x, !next) :: !names;
          incr next;
          !next - 1
      | (y, i) :: _ when String.equal x y -> i
      | _ :: rest -> number x rest
    in
    let atom lav (a : Cq.Atom.t) =
      {
        pred = a.Cq.Atom.pred;
        lav;
        args =
          List.map
            (function
              | Term.Var x -> Var (number x !names) | Term.Const c -> Const c)
            a.Cq.Atom.args;
      }
    in
    let head = atom false node.head in
    let body = List.map (fun (g : goal) -> atom g.lav_only g.atom) node.body in
    { head; body = List.sort compare_atom body }
end

module Memo = Hashtbl.Make (Key)

(* A term of one unfolding: a goal variable, a rule slot or a
   constant. *)
type side = Goal of string | Slot of int | Value of Relalg.Value.t

(* One unfolding's unifier: each rule slot's binding, each bound goal
   variable's (newest first), and the variables named for free slots. *)
type unifier = {
  tpl : Rewrite.Cover.template;
  suffix : string;
  slots : side option array;
  mutable goals : (string * side) list;
  named : Term.t option array;
}

let rec bound x = function
  | [] -> None
  | (y, s) :: rest -> if String.equal x y then Some s else bound x rest

let rec resolve u = function
  | Slot i as s -> ( match u.slots.(i) with None -> s | Some t -> resolve u t)
  | Goal x as s -> ( match bound x u.goals with None -> s | Some t -> resolve u t)
  | Value _ as s -> s

(* Unify goal term [a] with rule argument [b], binding the goal side
   first as {!Cq.Subst.unify_term} would. *)
let unify u (a : Term.t) b =
  let left = resolve u (match a with Term.Var x -> Goal x | Term.Const c -> Value c) in
  let right =
    resolve u
      (match b with Rewrite.Cover.Slot i -> Slot i | Rewrite.Cover.Lit c -> Value c)
  in
  match (left, right) with
  | Value c, Value c' -> Relalg.Value.equal c c'
  | Slot i, Slot j when i = j -> true
  | Goal x, other ->
      u.goals <- (x, other) :: u.goals;
      true
  | Slot i, other | other, Slot i ->
      u.slots.(i) <- Some other;
      true
  | Value _, _ -> false

let rec unify_args u (args : Rewrite.Cover.arg array) i = function
  | [] -> true
  | a :: rest -> unify u a args.(i) && unify_args u args (i + 1) rest

let term_of u = function
  | Slot i -> (
      match u.named.(i) with
      | Some t -> t
      | None ->
          let t = Term.Var (Rewrite.Cover.name u.tpl i ^ u.suffix) in
          u.named.(i) <- Some t;
          t)
  | Value c -> Term.Const c
  | Goal x -> Term.Var x

let apply_term u = function
  | Term.Var x as t -> (
      match bound x u.goals with None -> t | Some s -> term_of u (resolve u s))
  | Term.Const _ as t -> t

let apply_atom u (a : Atom.t) =
  if u.goals = [] then a else Atom.map_terms (apply_term u) a

let instantiate u (b : Rewrite.Cover.catom) =
  let args = ref [] in
  for k = Array.length b.Rewrite.Cover.args - 1 downto 0 do
    args :=
      (match b.Rewrite.Cover.args.(k) with
      | Rewrite.Cover.Slot i -> term_of u (resolve u (Slot i))
      | Rewrite.Cover.Lit c -> Term.Const c)
      :: !args
  done;
  Atom.make b.Rewrite.Cover.pred !args

(* Unfold one goal with a rule, instantiating the rule's template: the
   goal's atom is unified with the template's head, goal variables
   binding to rule slots or constants and slots to slots or constants
   (as {!Cq.Subst.unify_atom} would bind them, goal side first), and a
   slot left free becomes the variable [x ^ suffix], [x] its name in the
   rule. Rule-body atoms inherit the goal's history extended with the
   rule's mapping id. *)
let expand_goal catalog ~suffix node goal (rule : Catalog.artifact) =
  let tpl = rule.Catalog.template in
  let args = tpl.Rewrite.Cover.head.Rewrite.Cover.args in
  let n = Array.length tpl.Rewrite.Cover.vars in
  let u =
    { tpl; suffix; slots = Array.make n None; goals = []; named = Array.make n None }
  in
  if
    Array.length args <> Atom.arity goal.atom
    || not (unify_args u args 0 goal.atom.Atom.args)
  then None
  else begin
    let hist =
      match rule.Catalog.id with Some id -> Iset.add id goal.hist | None -> goal.hist
    in
    let rec body = function
      | [] -> []
      | g :: rest when g == goal ->
          let tail = body rest in
          Array.fold_right
            (fun b acc -> goal_of catalog hist (instantiate u b) :: acc)
            tpl.Rewrite.Cover.body tail
      | g :: rest ->
          let atom = apply_atom u g.atom in
          (if atom == g.atom then g else { g with atom }) :: body rest
    in
    Some { head = apply_atom u node.head; body = body node.body }
  end

(* Drop repeated body atoms, keeping the first occurrence in order. A
   body without repeats (every MiniCon child, most unfoldings) is
   returned as it is. *)
let dedupe_body node =
  let rec repeats = function
    | [] -> false
    | g :: rest -> List.exists (fun g' -> Atom.equal g.atom g'.atom) rest || repeats rest
  in
  if not (repeats node.body) then node
  else
    let rec keep kept = function
      | [] -> List.rev kept
      | g :: rest ->
          if List.exists (fun k -> Atom.equal k.atom g.atom) kept then keep kept rest
          else keep (g :: kept) rest
    in
    { node with body = keep [] node.body }

(* The all-pairs subsumption sweep, the one subsumption step (exposed
   for benchmarking): it drops every rewriting contained in another, and
   each maximal containment class keeps its earliest member, in emission
   order. The signature prefilter only skips pairs whose containment
   test is certainly [false]. *)
let subsumption_sweep ?(exec = Exec.default) (rewritings : Query.t list) =
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
    let contained i j =
      if Signature.compatible ~sub:sigs.(i) ~super:sigs.(j) then begin
        incr tested;
        Containment.contained_in_with ~sub:sigs.(i) ~super:sigs.(j) arr.(i)
          arr.(j)
      end
      else begin
        incr skipped;
        false
      end
    in
    let keep = Array.make n true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && keep.(i) && keep.(j) && contained i j then
          if contained j i then (
            if j > i then keep.(j) <- false else keep.(i) <- false)
          else keep.(i) <- false
      done
    done;
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

(* One breadth-first rule-goal search over [q]: its rewritings,
   minimised and swept, and its stats. The search stops once it has
   emitted [max_rewritings], counting those the sweep then drops. *)
let search exec catalog (q : Query.t) =
  let pruning = exec.Exec.pruning in
  let nodes_expanded = ref 0 in
  let emitted = ref [] in
  let emitted_count = ref 0 in
  let pruned_history = ref 0 in
  let pruned_visited = ref 0 in
  let pruned_depth = ref 0 in
  let lav_invocations = ref 0 in
  (* Goal memo: alpha-normalised CQ keys already enqueued (ignoring
     histories). Breadth-first order makes the first visit the
     shortest-path one, so its history is the most permissive in
     practice — this is the aggressive Piazza heuristic. *)
  let goal_memo = Memo.create 256 in
  let seen node =
    let key = Key.of_node node in
    Memo.mem goal_memo key
    || begin
         Memo.add goal_memo key ();
         false
       end
  in
  (* Each unfolding names its free rule variables with the next
     [~g<n>] suffix, whether or not the rule's head unifies. *)
  let unfoldings = ref 0 in
  let emit c =
    let c = Minimize.remove_duplicate_atoms c in
    let c = if pruning.Exec.use_minimize then Minimize.minimize c else c in
    emitted := c :: !emitted;
    incr emitted_count
  in
  let queue : (node * int) Queue.t = Queue.create () in
  (* A complete node is queued for emission without a memo check. *)
  let push node depth =
    let node = dedupe_body node in
    if depth > pruning.Exec.max_depth then incr pruned_depth
    else if
      pruning.Exec.use_goal_memo
      && List.exists (fun g -> g.pending) node.body
      && seen node
    then incr pruned_visited
    else Queue.add (node, depth) queue
  in
  let process node depth =
    incr nodes_expanded;
    let pending = List.filter (fun g -> g.pending) node.body in
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
          Catalog.iter_rules catalog goal.atom.Atom.pred (fun rule ->
              let blocked =
                pruning.Exec.use_history
                &&
                match rule.Catalog.id with
                | Some id -> Iset.mem id goal.hist
                | None -> false
              in
              if blocked then incr pruned_history
              else begin
                incr unfoldings;
                let suffix = "~g" ^ string_of_int !unfoldings in
                match expand_goal catalog ~suffix node goal rule with
                | None -> ()
                | Some node' -> push node' (depth + 1)
              end);
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
             views that read one of its predicates (MiniCon); identity
             views carry stored atoms through unchanged. View atoms
             inherit the union of the pending atoms' histories
             (conservative). History skips every view of a mapping
             already on that path: [pruned_history] counts them all,
             read or not. *)
          incr lav_invocations;
          let union_hist =
            List.fold_left (fun acc g -> Iset.union acc g.hist) Iset.empty pending
          in
          let blocked id = pruning.Exec.use_history && Iset.mem id union_hist in
          if pruning.Exec.use_history then
            Iset.iter
              (fun id ->
                pruned_history := !pruned_history + Catalog.view_count catalog id)
              union_hist;
          let query = plain node in
          let views =
            List.filter_map
              (fun (v : Catalog.artifact) ->
                match v.Catalog.id with
                | Some id when blocked id -> None
                | Some _ | None -> Some v.Catalog.template)
              (Catalog.views_reading catalog (Query.body_preds query))
          in
          let id_views =
            node.body
            |> List.filter_map (fun g ->
                   if g.pending then None
                   else Some (g.atom.Atom.pred, Atom.arity g.atom))
            |> List.sort_uniq compare
            |> List.map (fun (p, arity) -> Catalog.identity_view catalog p ~arity)
          in
          let rewritings, _ =
            Rewrite.Minicon.rewrite_prepared ~views:(views @ id_views) query
          in
          List.iter
            (fun (r : Query.t) ->
              push
                {
                  head = r.Query.head;
                  body = List.map (goal_of catalog union_hist) r.Query.body;
                }
                (depth + 1))
            rewritings
    end
  in
  push
    { head = q.Query.head; body = List.map (goal_of catalog Iset.empty) q.Query.body }
    0;
  while
    (not (Queue.is_empty queue)) && !emitted_count < pruning.Exec.max_rewritings
  do
    let node, depth = Queue.pop queue in
    process node depth
  done;
  let rewritings = List.rev !emitted in
  let rewritings =
    if pruning.Exec.use_subsumption then subsumption_sweep ~exec rewritings
    else rewritings
  in
  let kept = List.length rewritings in
  ( rewritings,
    {
      nodes_expanded = !nodes_expanded;
      emitted = kept;
      pruned_history = !pruned_history;
      pruned_visited = !pruned_visited;
      pruned_subsumed = !emitted_count - kept;
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
  if not (Query.is_safe q) then
    invalid_arg "Reformulate.reformulate: unsafe query";
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
