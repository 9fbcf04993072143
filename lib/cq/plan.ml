(* Prefix-trie evaluation of conjunctive queries, one query or a whole
   rewriting union. See plan.mli for the contract; the shape notes that
   matter for correctness:

   - Alpha-normalisation numbers variables by first occurrence along
     the path, and variable [p<i>] lives in slot [i] of the walk's
     environment. So the slots bound above a node are fixed by its path
     (exactly [0 .. n - 1] for some [n]), and each atom compiles once,
     at build, into instructions over slots.
   - Per-query pre-dedup counts are assignment counts at the query's
     emit point; a single query evaluated alone ({!of_query}) is a
     one-path plan, so the counts agree by construction. *)

let m_builds = Obs.Metrics.counter "cq.plan.builds"
let m_nodes = Obs.Metrics.counter "cq.plan.nodes"
let m_shared = Obs.Metrics.counter "cq.plan.shared_prefix_atoms"
let m_reused = Obs.Metrics.counter "cq.plan.bindings_reused"
let m_duplicates = Obs.Metrics.counter "cq.plan.duplicate_queries"
let m_fan_unions = Obs.Metrics.counter "cq.plan.fan_unions"
let m_probes_shared = Obs.Metrics.counter "cq.plan.probes_shared"
let h_depth = Obs.Metrics.histogram "cq.plan.depth"

(* An atom whose arity disagrees with its stored relation matches
   nothing; the counter makes that schema bug visible in any metrics
   dump rather than only as an empty answer. Bumped once per visit of
   the atom, like the other cq.* counters — the global Metrics switch
   gates the cost. *)
let m_arity_mismatch = Obs.Metrics.counter "cq.eval.arity_mismatch"

(* Greedy stats-aware join order: repeatedly pick the atom with the
   lowest estimated extension count — relation cardinality scaled by
   the selectivity (1/distinct) of every already-determined position —
   breaking ties towards more bound positions and then towards the
   earlier atom, so the order is deterministic. Statistics come from
   {!Relalg.Stats}, kept on each relation and patched as it changes,
   so repeated planning over an unchanged database never rescans a
   relation.

   This runs once per rewriting of a union (thousands of times per
   answered query), so it works over dense arrays: variables are
   interned into slots by linear scan (bodies are small), boundness is
   a [bool array] read, and per-atom statistics are resolved exactly
   once up front. *)
let order_atoms db (q : Query.t) =
  match q.Query.body with
  | ([] | [ _ ]) as body -> body
  | body ->
      let atoms = Array.of_list body in
      let n = Array.length atoms in
      (* Intern variables into dense slots; constants map to -1 (always
         determined). *)
      let var_names = ref (Array.make 8 "") in
      let nvars = ref 0 in
      let slot x =
        let names = !var_names in
        let rec find i =
          if i >= !nvars then begin
            if !nvars >= Array.length names then begin
              let bigger = Array.make (2 * Array.length names) "" in
              Array.blit names 0 bigger 0 !nvars;
              var_names := bigger
            end;
            !var_names.(!nvars) <- x;
            Stdlib.incr nvars;
            !nvars - 1
          end
          else if String.equal names.(i) x then i
          else find (i + 1)
        in
        find 0
      in
      let arg_slots =
        Array.map
          (fun (a : Atom.t) ->
            Array.of_list
              (List.map
                 (function Term.Const _ -> -1 | Term.Var x -> slot x)
                 a.Atom.args))
          atoms
      in
      let stats =
        Array.map
          (fun (a : Atom.t) ->
            Option.map Relalg.Stats.of_relation
              (Relalg.Database.find_opt db a.Atom.pred))
          atoms
      in
      let bound = Array.make (max 1 !nvars) false in
      let used = Array.make n false in
      let order = Array.make n 0 in
      for round = 0 to n - 1 do
        let best = ref (-1) in
        let best_est = ref infinity in
        let best_bound = ref (-1) in
        for i = 0 to n - 1 do
          if not used.(i) then begin
            let slots = arg_slots.(i) in
            let bcount = ref 0 in
            let est =
              match stats.(i) with
              | None ->
                  (* Missing relation: empty, cheapest possible — but
                     still count determined positions for the tie. *)
                  Array.iter
                    (fun s -> if s < 0 || bound.(s) then Stdlib.incr bcount)
                    slots;
                  0.0
              | Some st ->
                  let est = ref (float_of_int st.Relalg.Stats.cardinality) in
                  Array.iteri
                    (fun j s ->
                      if s < 0 || bound.(s) then begin
                        Stdlib.incr bcount;
                        est := !est *. Relalg.Stats.selectivity st j
                      end)
                    slots;
                  !est
            in
            (* Lower estimate wins; ties fall to higher boundness, then
               to the earlier atom (strict [<] / [>] keeps the first
               minimum). *)
            if est < !best_est || (est = !best_est && !bcount > !best_bound)
            then begin
              best := i;
              best_est := est;
              best_bound := !bcount
            end
          end
        done;
        let i = !best in
        used.(i) <- true;
        order.(round) <- i;
        Array.iter (fun s -> if s >= 0 then bound.(s) <- true) arg_slots.(i)
      done;
      List.init n (fun round -> atoms.(order.(round)))

let head_schema (q : Query.t) =
  let seen = Hashtbl.create 8 in
  let attrs =
    List.mapi
      (fun i t ->
        match t with
        | Term.Var x when not (Hashtbl.mem seen x) ->
            Hashtbl.replace seen x ();
            x
        | Term.Var _ | Term.Const _ -> Printf.sprintf "col%d" i)
      q.Query.head.Atom.args
  in
  Relalg.Schema.make q.Query.head.Atom.pred attrs

(* One argument position of a compiled atom. *)
type arg =
  | Const of Relalg.Value.t  (* filter: the column equals the constant *)
  | Bound of int  (* filter: the column equals a slot bound above *)
  | Bind of int  (* first occurrence: write the column into the slot *)
  | Same of int  (* repeat within this atom: the column equals the slot *)

type head_term =
  | Slot of int
  | Value of Relalg.Value.t
  | Unbound of string  (* a head variable the body never binds: the error *)

type emit = {
  query : int;
  head : head_term array;
  vars : string array;  (* the query's own variable names, by slot *)
}

type node = {
  id : int;  (* dense over the trie's atom nodes; the root is -1 *)
  pred : string;
  args : arg array;
  probe : int array;  (* the [Const] and [Bound] columns, ascending *)
  bound : int;  (* slots bound once this node's atom matched *)
  depth : int;
  children_by_key : (Atom.t, node) Hashtbl.t;
      (* keyed on the alpha-normalised atom itself (structural hash and
         equality) — rendering string keys dominated build time *)
  mutable children : node list;  (* reverse insertion order until [compile] finalises *)
  mutable emits : emit list;  (* reverse insertion order until [compile] finalises *)
  mutable through : int;  (* queries whose path passes through this node *)
  mutable fans : fan list;  (* set by [compile] *)
}

(* Two or more children that probe one column each, on the same
   ancestor-bound slot and nothing else, in insertion order. *)
and fan = {
  slot : int;
  members : node array;
  union : int;
      (* the plan's id for the members' (relation, column, arity) list:
         fans with equal lists share one union table per walk *)
}

type build_stats = {
  queries : int;
  nodes : int;
  shared_prefix_atoms : int;
  duplicate_queries : int;
  max_depth : int;
}

type t = {
  queries : Query.t array;
  root : node;  (* pseudo-node: children are the top-level branches,
                   emits are the empty-body queries *)
  slots : int;  (* environment size: the most variables of any query *)
  unions : (string * int * int) array array;
      (* by union id: each member's relation, probed column and arity *)
  stats : build_stats;
}

let stats t = t.stats

(* Canonical variable names, memoized as in Reformulate so typical
   bodies allocate no name strings. A distinct prefix keeps planner
   names out of any user variable namespace (purely cosmetic — sharing
   only needs the renaming to be deterministic). *)
let canon_names = Array.init 256 (fun i -> "p" ^ string_of_int i)
let canon_name i = if i < 256 then canon_names.(i) else "p" ^ string_of_int i

let mk_node ~id ~depth ~bound pred args =
  let probe = ref [] in
  for col = Array.length args - 1 downto 0 do
    match args.(col) with
    | Const _ | Bound _ -> probe := col :: !probe
    | Bind _ | Same _ -> ()
  done;
  {
    id;
    pred;
    args;
    probe = Array.of_list !probe;
    bound;
    depth;
    children_by_key = Hashtbl.create 4;
    children = [];
    emits = [];
    through = 0;
    fans = [];
  }

(* Compile [atom] (whose variables [slot_of] numbers) below a node that
   bound slots [0 .. bound - 1]; also returns the slots bound after it.
   This atom's first occurrences are the next slots in column order, so
   a variable numbered past the ones it has bound so far is new here,
   and any other is a repeat. *)
let compile_atom ~bound slot_of (atom : Atom.t) =
  let next = ref bound in
  let args =
    Array.of_list
      (List.map
         (function
           | Term.Const v -> Const v
           | Term.Var x ->
               let s = slot_of x in
               if s < bound then Bound s
               else if s = !next then begin
                 incr next;
                 Bind s
               end
               else Same s)
         atom.Atom.args)
  in
  (args, !next)

let head_term_equal a b =
  match (a, b) with
  | Slot i, Slot j -> i = j
  | Value u, Value v -> Relalg.Value.equal u v
  | Unbound x, Unbound y -> String.equal x y
  | (Slot _ | Value _ | Unbound _), _ -> false

let head_equal a b =
  Array.length a = Array.length b && Array.for_all2 head_term_equal a b

(* The slot a child probes its relation on, when that is its only
   probe: a fan member's key. *)
let fan_slot n =
  match n.probe with
  | [| col |] -> ( match n.args.(col) with Bound s -> s | _ -> -1)
  | _ -> -1

(* [children] grouped by [fan_slot], groups and members in insertion
   order, keeping the groups of two or more; [union_id] numbers their
   (relation, column, arity) lists. *)
let fans_of union_id children =
  let slots =
    List.fold_left
      (fun slots n ->
        let s = fan_slot n in
        if s < 0 || List.mem s slots then slots else s :: slots)
      [] children
  in
  List.filter_map
    (fun slot ->
      match List.filter (fun n -> fan_slot n = slot) children with
      | [] | [ _ ] -> None
      | members ->
          let members = Array.of_list members in
          let union =
            union_id
              (Array.map
                 (fun n -> (n.pred, n.probe.(0), Array.length n.args))
                 members)
          in
          Some { slot; members; union })
    (List.rev slots)

(* Fold the queries into a trie; records no metrics. [caller] names the
   entry point in the error an unsafe head raises. *)
let compile ~caller db qs =
  let queries = Array.of_list qs in
  let root = mk_node ~id:(-1) ~depth:0 ~bound:0 "" [||] in
  let nodes = ref 0 in
  let slots = ref 0 in
  let max_depth = ref 0 in
  let duplicates = ref 0 in
  Array.iteri
    (fun qi q ->
      let ordered = order_atoms db q in
      (* Alpha-normalise over the ordered body: variables renamed by
         first occurrence, so alpha-equivalent prefixes hash to the
         same trie children and collapse onto one path. The mapping is
         a linear scan over a small array — bodies are tiny, and this
         runs once per rewriting of the union. *)
      let orig_names = ref (Array.make 8 "") in
      let nvars = ref 0 in
      let find_mapped x =
        let names = !orig_names in
        let rec find i =
          if i >= !nvars then -1
          else if String.equal names.(i) x then i
          else find (i + 1)
        in
        find 0
      in
      let canon_term = function
        | Term.Const _ as t -> t
        | Term.Var x ->
            let i = find_mapped x in
            if i >= 0 then Term.Var (canon_name i)
            else begin
              if !nvars >= Array.length !orig_names then begin
                let bigger = Array.make (2 * Array.length !orig_names) "" in
                Array.blit !orig_names 0 bigger 0 !nvars;
                orig_names := bigger
              end;
              !orig_names.(!nvars) <- x;
              Stdlib.incr nvars;
              Term.Var (canon_name (!nvars - 1))
            end
      in
      let catoms =
        List.map (fun atom -> (atom, Atom.map_terms canon_term atom)) ordered
      in
      if !nvars > !slots then slots := !nvars;
      (* Head vars map through the body's renaming only: a head var
         absent from the body (unsafe query) compiles to its error. *)
      let head =
        Array.of_list
          (List.map
             (function
               | Term.Const v -> Value v
               | Term.Var x as t ->
                   let i = find_mapped x in
                   if i >= 0 then Slot i
                   else
                     Unbound
                       (caller ^ ": unsafe query, unbound head term "
                      ^ Term.to_string t))
             q.Query.head.Atom.args)
      in
      let tip =
        List.fold_left
          (fun parent (atom, key) ->
            match Hashtbl.find_opt parent.children_by_key key with
            | Some n ->
                n.through <- n.through + 1;
                n
            | None ->
                let args, bound =
                  compile_atom ~bound:parent.bound find_mapped atom
                in
                let n =
                  mk_node ~id:!nodes ~depth:(parent.depth + 1) ~bound
                    atom.Atom.pred args
                in
                n.through <- 1;
                incr nodes;
                Hashtbl.replace parent.children_by_key key n;
                parent.children <- n :: parent.children;
                n)
          root catoms
      in
      if tip.depth > !max_depth then max_depth := tip.depth;
      if List.exists (fun e -> head_equal e.head head) tip.emits then
        incr duplicates;
      tip.emits <-
        { query = qi; head; vars = Array.sub !orig_names 0 !nvars } :: tip.emits)
    queries;
  (* Finalise: restore insertion order so walks are deterministic, and
     group each node's children into fans. *)
  let shared = ref 0 in
  let unions = Hashtbl.create 8 in
  let union_id columns =
    match Hashtbl.find_opt unions columns with
    | Some id -> id
    | None ->
        let id = Hashtbl.length unions in
        Hashtbl.replace unions columns id;
        id
  in
  let rec finalise n =
    n.children <- List.rev n.children;
    n.emits <- List.rev n.emits;
    n.fans <- fans_of union_id n.children;
    if n != root && n.through > 1 then shared := !shared + (n.through - 1);
    List.iter finalise n.children
  in
  finalise root;
  let stats =
    {
      queries = Array.length queries;
      nodes = !nodes;
      shared_prefix_atoms = !shared;
      duplicate_queries = !duplicates;
      max_depth = !max_depth;
    }
  in
  let union_columns = Array.make (Hashtbl.length unions) [||] in
  Hashtbl.iter (fun columns id -> union_columns.(id) <- columns) unions;
  { queries; root; slots = !slots; unions = union_columns; stats }

let rec iter_nodes f n =
  f n;
  List.iter (iter_nodes f) n.children

let build ?(trace = Obs.Trace.null) db qs =
  Obs.Trace.span trace "plan" @@ fun () ->
  let t = compile ~caller:"Plan" db qs in
  let stats = t.stats in
  iter_nodes
    (fun n ->
      List.iter
        (fun _ -> Obs.Metrics.observe h_depth (float_of_int n.depth))
        n.emits)
    t.root;
  Obs.Metrics.incr m_builds;
  Obs.Metrics.add m_nodes stats.nodes;
  Obs.Metrics.add m_shared stats.shared_prefix_atoms;
  Obs.Metrics.add m_duplicates stats.duplicate_queries;
  Obs.Trace.attr_i trace "queries" stats.queries;
  Obs.Trace.attr_i trace "nodes" stats.nodes;
  Obs.Trace.attr_i trace "shared_prefix_atoms" stats.shared_prefix_atoms;
  Obs.Trace.attr_i trace "duplicate_queries" stats.duplicate_queries;
  Obs.Trace.attr_i trace "max_depth" stats.max_depth;
  t

let of_query db q = compile ~caller:"Eval.run" db [ q ]

(* ------------------------------------------------------------------ *)
(* The walk *)

module Vtbl = Hashtbl.Make (Relalg.Value)

(* One column of a union: a member's relation and probed column, or
   nothing when the relation is missing or its arity is not the
   member's (that member is visited on its own). *)
type column = Absent | Column of Relalg.Relation.t * int

(* A fan's union table for one walk, shared by every node whose fan
   reads the same (relation, column, arity) list: each key value maps
   to each column's [find_by] list.  Built once [probes] made without
   it reach [keys], the number of keys it would hold. *)
type union = {
  columns : column array;
  present : int;  (* the [Column]s *)
  keys : int;  (* the sum of the columns' distinct values *)
  mutable probes : int;
  mutable table : Relalg.Relation.tuple list array Vtbl.t option;
  none : Relalg.Relation.tuple list array;  (* a key no column holds *)
}

(* One node's fan in one walk: [rows] holds the current binding's
   lists, when [shared] says the union answered it. *)
type lookup = {
  union : union;
  slot : int;
  mutable shared : bool;
  mutable rows : Relalg.Relation.tuple list array;
}

(* What a node's atom reads, resolved once per run; a fan member reads
   column [i] of its fan's lookup. *)
type source =
  | Missing
  | Mismatched
  | Rel of Relalg.Relation.t
  | Member of Relalg.Relation.t * lookup * int

let make_union db spec =
  let columns =
    Array.map
      (fun (pred, col, arity) ->
        match Relalg.Database.find_opt db pred with
        | Some rel
          when Relalg.Schema.arity (Relalg.Relation.schema rel) = arity ->
            Column (rel, col)
        | Some _ | None -> Absent)
      spec
  in
  let present, keys =
    Array.fold_left
      (fun (present, keys) -> function
        | Absent -> (present, keys)
        | Column (rel, col) ->
            ( present + 1,
              keys + (Relalg.Stats.of_relation rel).Relalg.Stats.distinct.(col)
            ))
      (0, 0) columns
  in
  {
    columns;
    present;
    keys;
    probes = 0;
    table = None;
    none = Array.make (Array.length columns) [];
  }

(* What every node reads in this walk, and each node's fans as lookups:
   a fan whose union has fewer than two present columns has none, and
   its members probe on their own. *)
let resolve db t =
  let sources = Array.make t.stats.nodes Missing in
  let lookups = Array.make t.stats.nodes [] in
  iter_nodes
    (fun n ->
      if n.id >= 0 then
        sources.(n.id) <-
          (match Relalg.Database.find_opt db n.pred with
          | None -> Missing
          | Some rel ->
              if
                Array.length n.args
                = Relalg.Schema.arity (Relalg.Relation.schema rel)
              then Rel rel
              else Mismatched))
    t.root;
  let unions = Array.make (Array.length t.unions) None in
  let lookup (f : fan) =
    let union =
      match unions.(f.union) with
      | Some u -> u
      | None ->
          let u = make_union db t.unions.(f.union) in
          unions.(f.union) <- Some u;
          u
    in
    if union.present < 2 then None
    else begin
      let l = { union; slot = f.slot; shared = false; rows = union.none } in
      Array.iteri
        (fun i m ->
          match union.columns.(i) with
          | Column (rel, _) -> sources.(m.id) <- Member (rel, l, i)
          | Absent -> ())
        f.members;
      Some l
    end
  in
  iter_nodes
    (fun n -> if n.id >= 0 then lookups.(n.id) <- List.filter_map lookup n.fans)
    t.root;
  (sources, lookups)

type walk = {
  env : Relalg.Value.t array;
  sources : source array;
  lookups : lookup list array;  (* by node id: the node's fans *)
  emit : emit -> Relalg.Value.t array -> unit;
  mutable reused : int;
      (* the bindings shared nodes saved: each extension of a node
         would have been recomputed once more per additional query
         through it *)
  mutable unions : int;  (* union tables built *)
  mutable probes_shared : int;
      (* member probes a union answered beyond the first per binding *)
}

let probe_value env = function
  | Const v -> v
  | Bound s | Bind s | Same s -> env.(s)

(* The same index calls, in the same order, as a per-binding probe of
   every determined position: a scan, one posting list, or the
   intersection of the two most selective. *)
let candidates rel n env =
  match n.probe with
  | [||] -> Relalg.Relation.tuples rel
  | [| col |] -> Relalg.Relation.find_by rel col (probe_value env n.args.(col))
  | cols ->
      Relalg.Relation.find_by_bound rel
        (Array.fold_right
           (fun col acc -> (col, probe_value env n.args.(col)) :: acc)
           cols [])

(* Every column's [find_by] lists, taken from its index. *)
let build_union u =
  let table = Vtbl.create u.keys in
  let width = Array.length u.columns in
  Array.iteri
    (fun i -> function
      | Absent -> ()
      | Column (rel, col) ->
          Relalg.Relation.fold_by rel col
            (fun v rows () ->
              let lists =
                match Vtbl.find table v with
                | lists -> lists
                | exception Not_found ->
                    let lists = Array.make width [] in
                    Vtbl.add table v lists;
                    lists
              in
              lists.(i) <- rows)
            ())
    u.columns;
  u.table <- Some table

(* Point each of a node's fans at the current binding's lists: one
   lookup for all its members once the union is built, else none (the
   members probe on their own, and count towards the build). *)
let rec look_up w = function
  | [] -> ()
  | l :: ls ->
      let u = l.union in
      (match u.table with
      | None when u.probes >= u.keys ->
          w.unions <- w.unions + 1;
          build_union u
      | Some _ | None -> ());
      (match u.table with
      | Some table ->
          l.shared <- true;
          l.rows <-
            (match Vtbl.find table w.env.(l.slot) with
            | lists -> lists
            | exception Not_found -> u.none);
          w.probes_shared <- w.probes_shared + (u.present - 1)
      | None -> l.shared <- false);
      look_up w ls

(* Does [row] match from column [i] on? Writes this atom's slots on the
   way; a failed row leaves them for the next candidate to overwrite. *)
let rec matches args env (row : Relalg.Relation.tuple) i =
  i >= Array.length args
  || (match args.(i) with
     | Const v -> Relalg.Value.equal v row.(i)
     | Bound s | Same s -> Relalg.Value.equal env.(s) row.(i)
     | Bind s ->
         env.(s) <- row.(i);
         true)
     && matches args env row (i + 1)

(* Depth-first: at each extension, emits before children, children in
   insertion order. *)
let rec visit w n =
  match w.sources.(n.id) with
  | Missing -> ()
  | Mismatched -> Obs.Metrics.incr m_arity_mismatch
  | Rel rel -> extend w n (candidates rel n w.env)
  | Member (rel, l, i) ->
      if l.shared then extend w n l.rows.(i)
      else begin
        l.union.probes <- l.union.probes + 1;
        extend w n (candidates rel n w.env)
      end

and extend w n = function
  | [] -> ()
  | row :: rows ->
      if matches n.args w.env row 0 then begin
        w.reused <- w.reused + (n.through - 1);
        emit_all w n.emits;
        (match w.lookups.(n.id) with [] -> () | ls -> look_up w ls);
        visit_all w n.children
      end;
      extend w n rows

and emit_all w = function
  | [] -> ()
  | e :: es ->
      w.emit e w.env;
      emit_all w es

and visit_all w = function
  | [] -> ()
  | n :: ns ->
      visit w n;
      visit_all w ns

(* Walk the whole trie in one fresh environment. Empty-body queries
   emit once, with no bindings, before any branch runs. *)
let walk t db emit =
  List.iter (fun e -> emit e [||]) t.root.emits;
  let sources, lookups = resolve db t in
  let w =
    {
      env = Array.make t.slots Relalg.Value.Null;
      sources;
      lookups;
      emit;
      reused = 0;
      unions = 0;
      probes_shared = 0;
    }
  in
  visit_all w t.root.children;
  w

(* The walk's counters, as metrics and as attributes of the caller's
   [trie_eval] span. *)
let record trace t w =
  Obs.Metrics.add m_reused w.reused;
  Obs.Metrics.add m_fan_unions w.unions;
  Obs.Metrics.add m_probes_shared w.probes_shared;
  Obs.Trace.attr_i trace "branches" (List.length t.root.children);
  Obs.Trace.attr_i trace "bindings_reused" w.reused;
  Obs.Trace.attr_i trace "fan_unions" w.unions;
  Obs.Trace.attr_i trace "probes_shared" w.probes_shared

let head_value env = function
  | Slot s -> env.(s)
  | Value v -> v
  | Unbound msg -> invalid_arg msg

(* A loop rather than [Array.map], so an emit allocates its tuple and
   no closure. *)
let head_tuple e env =
  let tuple = Array.make (Array.length e.head) Relalg.Value.Null in
  for i = 0 to Array.length e.head - 1 do
    tuple.(i) <- head_value env e.head.(i)
  done;
  tuple

let run_union_into ?(trace = Obs.Trace.null) out db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let counts = Array.make (Array.length t.queries) 0 in
  let emit e env =
    let tuple = head_tuple e env in
    counts.(e.query) <- counts.(e.query) + 1;
    ignore (Relalg.Relation.add_distinct out tuple : bool)
  in
  let w = walk t db emit in
  record trace t w;
  Obs.Trace.attr_i trace "tuples" (Array.fold_left ( + ) 0 counts);
  Array.to_list counts

let run_each ?(trace = Obs.Trace.null) db t =
  Obs.Trace.span trace "trie_eval" @@ fun () ->
  let outs =
    Array.map (fun q -> Relalg.Relation.create (head_schema q)) t.queries
  in
  let emit e env =
    ignore (Relalg.Relation.add_distinct outs.(e.query) (head_tuple e env) : bool)
  in
  record trace t (walk t db emit);
  Array.to_list outs

let iter_assignments db t f = ignore (walk t db (fun e env -> f e.vars env) : walk)
