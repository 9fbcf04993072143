type agg = Count | Sum of string | Min of string | Max of string | Avg of string

(* Local conveniences over the unified mutation API: ops build their
   output relation row by row, either as a bag ([add]) or as a set
   ([add_distinct]). *)
let add out row = Relation.apply out (Relation.Delta.add row)
let add_distinct out row = ignore (Relation.add_distinct out row : bool)

let select pred rel =
  let out = Relation.create (Relation.schema rel) in
  Relation.iter (fun row -> if pred row then add out row) rel;
  out

let select_eq attr v rel =
  let col = Schema.index_of (Relation.schema rel) attr in
  let out = Relation.create (Relation.schema rel) in
  Relation.apply out (Relation.Delta.of_rows (Relation.find_by rel col v));
  out

let project attrs rel =
  let s = Relation.schema rel in
  let cols = List.map (Schema.index_of s) attrs in
  let out = Relation.create (Schema.make (Schema.name s) attrs) in
  Relation.iter
    (fun row ->
      let projected = Array.of_list (List.map (fun c -> row.(c)) cols) in
      add_distinct out projected)
    rel;
  out

let rename name rel =
  Relation.of_tuples (Schema.rename (Relation.schema rel) name) (Relation.tuples rel)

let rename_attrs mapping rel =
  let s = Relation.schema rel in
  let attrs =
    List.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      (Schema.attrs s)
  in
  Relation.of_tuples (Schema.make (Schema.name s) attrs) (Relation.tuples rel)

let natural_join left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let lattrs = Schema.attrs ls and rattrs = Schema.attrs rs in
  let shared = List.filter (fun a -> List.mem a lattrs) rattrs in
  let r_only = List.filter (fun a -> not (List.mem a shared)) rattrs in
  let out_schema = Schema.make "join" (lattrs @ r_only) in
  let out = Relation.create out_schema in
  let l_shared_cols = List.map (Schema.index_of ls) shared in
  let r_shared_cols = List.map (Schema.index_of rs) shared in
  let r_only_cols = List.map (Schema.index_of rs) r_only in
  let key_of row cols = List.map (fun c -> row.(c)) cols in
  (* Hash the right side on the shared key. *)
  let index = Hashtbl.create (max 16 (Relation.cardinality right)) in
  Relation.iter
    (fun row ->
      let key = key_of row r_shared_cols in
      let existing = Option.value ~default:[] (Hashtbl.find_opt index key) in
      Hashtbl.replace index key (row :: existing))
    right;
  Relation.iter
    (fun lrow ->
      let key = key_of lrow l_shared_cols in
      match Hashtbl.find_opt index key with
      | None -> ()
      | Some matches ->
          List.iter
            (fun rrow ->
              let extra = List.map (fun c -> rrow.(c)) r_only_cols in
              add out (Array.append lrow (Array.of_list extra)))
            matches)
    left;
  out

let product left right =
  let ls = Relation.schema left and rs = Relation.schema right in
  let lattrs = Schema.attrs ls and rattrs = Schema.attrs rs in
  if List.exists (fun a -> List.mem a lattrs) rattrs then
    invalid_arg "Ops.product: schemas share attributes (use natural_join)";
  let out = Relation.create (Schema.make "product" (lattrs @ rattrs)) in
  Relation.iter
    (fun lrow ->
      Relation.iter (fun rrow -> add out (Array.append lrow rrow)) right)
    left;
  out

let check_compatible a b op =
  if Schema.arity (Relation.schema a) <> Schema.arity (Relation.schema b) then
    invalid_arg ("Ops." ^ op ^ ": arity mismatch")

let union a b =
  check_compatible a b "union";
  let out = Relation.create (Relation.schema a) in
  Relation.iter (add_distinct out) a;
  Relation.iter (add_distinct out) b;
  out

let diff a b =
  check_compatible a b "diff";
  let out = Relation.create (Relation.schema a) in
  Relation.iter
    (fun row -> if not (Relation.mem b row) then add_distinct out row)
    a;
  out

let intersect a b =
  check_compatible a b "intersect";
  let out = Relation.create (Relation.schema a) in
  Relation.iter
    (fun row -> if Relation.mem b row then add_distinct out row)
    a;
  out

let agg_name = function
  | Count -> "count"
  | Sum a -> "sum_" ^ a
  | Min a -> "min_" ^ a
  | Max a -> "max_" ^ a
  | Avg a -> "avg_" ^ a

let numeric = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> invalid_arg ("Ops.group_by: non-numeric value " ^ Value.to_string v)

let compute_agg rows s = function
  | Count -> Value.Int (List.length rows)
  | Sum a ->
      let c = Schema.index_of s a in
      Value.Float (List.fold_left (fun acc r -> acc +. numeric r.(c)) 0.0 rows)
  | Min a ->
      let c = Schema.index_of s a in
      (match rows with
      | [] -> Value.Null
      | r0 :: rest ->
          List.fold_left (fun acc r -> if Value.compare r.(c) acc < 0 then r.(c) else acc) r0.(c) rest)
  | Max a ->
      let c = Schema.index_of s a in
      (match rows with
      | [] -> Value.Null
      | r0 :: rest ->
          List.fold_left (fun acc r -> if Value.compare r.(c) acc > 0 then r.(c) else acc) r0.(c) rest)
  | Avg a ->
      let c = Schema.index_of s a in
      if rows = [] then Value.Null
      else
        Value.Float
          (List.fold_left (fun acc r -> acc +. numeric r.(c)) 0.0 rows
          /. float_of_int (List.length rows))

let group_by keys aggs rel =
  let s = Relation.schema rel in
  let key_cols = List.map (Schema.index_of s) keys in
  let out_attrs = keys @ List.map agg_name aggs in
  let out = Relation.create (Schema.make "group" out_attrs) in
  let groups = Hashtbl.create 32 in
  Relation.iter
    (fun row ->
      let key = List.map (fun c -> row.(c)) key_cols in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (row :: existing))
    rel;
  Hashtbl.iter
    (fun key rows ->
      let agg_vals = List.map (compute_agg rows s) aggs in
      add out (Array.of_list (key @ agg_vals)))
    groups;
  out

let distinct rel =
  let out = Relation.create (Relation.schema rel) in
  Relation.iter (add_distinct out) rel;
  out

let sort_by attr rel =
  let col = Schema.index_of (Relation.schema rel) attr in
  let sorted =
    List.sort (fun a b -> Value.compare a.(col) b.(col)) (Relation.tuples rel)
  in
  (* Rows are stored and enumerated in insertion order now, so the
     ascending sort loads as-is (the pre-delta code reversed to cancel
     the newest-first enumeration). *)
  Relation.of_tuples (Relation.schema rel) sorted
