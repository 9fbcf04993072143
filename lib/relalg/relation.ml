type tuple = Value.t array

(* A loop rather than [Array.for_all2], whose inner closure would be
   allocated on every bucket comparison of every membership probe. *)
let rec equal_from (a : tuple) (b : tuple) i =
  i >= Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let tuple_equal a b = Array.length a = Array.length b && equal_from a b 0

(* Hash consistent with [tuple_equal]: Value.equal is structural, so a
   fold over Value.hash agrees on equal tuples. *)
let tuple_hash (row : tuple) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 row

module Tset = Hashtbl.Make (struct
  type t = tuple

  let equal = tuple_equal
  let hash = tuple_hash
end)

module Vtbl = Hashtbl.Make (Value)

module Delta = struct
  type t = { adds : tuple list; dels : tuple list }

  let empty = { adds = []; dels = [] }
  let add row = { adds = [ row ]; dels = [] }
  let remove row = { adds = []; dels = [ row ] }
  let of_rows rows = { adds = rows; dels = [] }
  let removes rows = { adds = []; dels = rows }
  let make ?(adds = []) ?(dels = []) () = { adds; dels }
  let adds t = t.adds
  let dels t = t.dels
  let is_empty t = t.adds = [] && t.dels = []
  let size t = List.length t.adds + List.length t.dels

  let remove_one tuple list =
    let rec go acc = function
      | [] -> None
      | x :: rest ->
          if tuple_equal x tuple then Some (List.rev_append acc rest)
          else go (x :: acc) rest
    in
    go [] list

  (* Sequential composition: [b] happens after [a].  Only add-then-del
     pairs cancel — a row added by [a] and removed by [b] was never
     observable, so dropping both is exact.  Del-then-add pairs are
     kept: the removed copy and the re-added copy occupy different
     positions in the relation's insertion order, and positional
     consumers (the keyword index) must see both events. *)
  let compose a b =
    let adds, dels =
      List.fold_left
        (fun (adds, dels) d ->
          match remove_one d adds with
          | Some adds' -> (adds', dels)
          | None -> (adds, dels @ [ d ]))
        (a.adds, a.dels) b.dels
    in
    { adds = adds @ b.adds; dels }
end

(* One kind's derived value ({!Derived}) with the epoch and version it
   was computed at. *)
type 'a cell = {
  mutable epoch : int;
  mutable version : int;
  mutable value : 'a;
}

type slot = Slot : 'a Type.Id.t * 'a cell -> slot

type t = {
  schema : Schema.t;
  mutable version : int;
  (* Rows in insertion order: slot [0 .. count_slots - 1] of [rows_arr].
     Appends are amortised O(1); removal compacts in place preserving
     order, so derived structures can mirror slots stably. *)
  mutable rows_arr : tuple array;
  mutable count_slots : int;
  (* Memoised oldest-first list view of the rows, keyed by version. *)
  mutable rows_list : (int * tuple list) option;
  (* Multiplicity per distinct tuple: O(1) [mem]. *)
  members : int Tset.t;
  (* By column: value -> tuples, newest first. Built lazily, then
     maintained incrementally on insert; dropped wholesale on
     delete/clear. *)
  indexes : tuple list Vtbl.t option array;
  (* Retained effective deltas, oldest first in [log_front], newest
     first in [log_back] (two-stack queue).  Each entry is
     [(version after applying, delta)].  [log_floor] is the oldest
     version still reconstructible from the log. *)
  mutable log_front : (int * Delta.t) list;
  mutable log_back : (int * Delta.t) list;
  mutable log_entries : int;
  mutable log_tuples : int;
  mutable log_floor : int;
  (* At most one slot per derived kind.  The one field a frozen relation
     still writes, so it is read and written only under
     [Derived.lock]. *)
  mutable derived : slot list;
}

(* Retention caps for the delta log: beyond either, oldest entries are
   truncated and consumers that saw a pre-truncation version must fall
   back to a full rebuild. *)
let log_max_entries = 512
let log_max_tuples = 8192

let create schema =
  {
    schema;
    version = 0;
    rows_arr = [||];
    count_slots = 0;
    rows_list = None;
    members = Tset.create 16;
    indexes = Array.make (Schema.arity schema) None;
    log_front = [];
    log_back = [];
    log_entries = 0;
    log_tuples = 0;
    log_floor = 0;
    derived = [];
  }

let schema t = t.schema
let version t = t.version
let cardinality t = t.count_slots
let delta_floor t = t.log_floor

let drop_indexes t = Array.fill t.indexes 0 (Array.length t.indexes) None

let rec check_arity what t = function
  | [] -> ()
  | row :: rows ->
      if Array.length row <> Schema.arity t.schema then
        invalid_arg
          (Printf.sprintf "Relation.%s: arity mismatch for %s (got %d, want %d)"
             what (Schema.name t.schema) (Array.length row)
             (Schema.arity t.schema));
      check_arity what t rows

let lookup idx key =
  match Vtbl.find idx key with rows -> rows | exception Not_found -> []

let index_push idx key row = Vtbl.replace idx key (row :: lookup idx key)

let grow t =
  let cap = Array.length t.rows_arr in
  if t.count_slots >= cap then begin
    let cap' = max 8 (2 * cap) in
    let arr = Array.make cap' [||] in
    Array.blit t.rows_arr 0 arr 0 t.count_slots;
    t.rows_arr <- arr
  end

let append_row t row =
  grow t;
  t.rows_arr.(t.count_slots) <- row;
  t.count_slots <- t.count_slots + 1;
  (match Tset.find t.members row with
  | m -> Tset.replace t.members row (m + 1)
  | exception Not_found -> Tset.add t.members row 1);
  (* Live indexes absorb the row instead of being invalidated. *)
  for col = 0 to Array.length t.indexes - 1 do
    match t.indexes.(col) with
    | Some idx -> index_push idx row.(col) row
    | None -> ()
  done

let rec append_rows t = function
  | [] -> ()
  | row :: rows ->
      append_row t row;
      append_rows t rows

let mem t row = Tset.mem t.members row

(* Remove one copy per del occurrence (multiset subtraction), lowest
   slot first, in a single order-preserving compaction pass.  Returns
   the effective removals (absent tuples are dropped). *)
let remove_rows t dels =
  let wanted = Tset.create (max 4 (List.length dels)) in
  let effective = ref [] in
  List.iter
    (fun row ->
      let have = Option.value ~default:0 (Tset.find_opt t.members row) in
      let already = Option.value ~default:0 (Tset.find_opt wanted row) in
      if already < have then begin
        Tset.replace wanted row (already + 1);
        effective := row :: !effective
      end)
    dels;
  if Tset.length wanted = 0 then []
  else begin
    let dst = ref 0 in
    for src = 0 to t.count_slots - 1 do
      let row = t.rows_arr.(src) in
      let pending = Option.value ~default:0 (Tset.find_opt wanted row) in
      if pending > 0 then begin
        Tset.replace wanted row (pending - 1);
        (match Tset.find_opt t.members row with
        | Some 1 -> Tset.remove t.members row
        | Some m -> Tset.replace t.members row (m - 1)
        | None -> ())
      end
      else begin
        t.rows_arr.(!dst) <- row;
        incr dst
      end
    done;
    for i = !dst to t.count_slots - 1 do
      t.rows_arr.(i) <- [||]
    done;
    t.count_slots <- !dst;
    drop_indexes t;
    List.rev !effective
  end

let log_push t entry tuples =
  t.log_back <- entry :: t.log_back;
  t.log_entries <- t.log_entries + 1;
  t.log_tuples <- t.log_tuples + tuples;
  while
    t.log_entries > log_max_entries || t.log_tuples > log_max_tuples
  do
    (match t.log_front with
    | [] ->
        t.log_front <- List.rev t.log_back;
        t.log_back <- []
    | _ -> ());
    match t.log_front with
    | (v, d) :: rest ->
        t.log_front <- rest;
        t.log_entries <- t.log_entries - 1;
        t.log_tuples <- t.log_tuples - Delta.size d;
        t.log_floor <- v
    | [] -> assert false
  done

let apply t (d : Delta.t) =
  check_arity "apply (del)" t d.Delta.dels;
  check_arity "apply (add)" t d.Delta.adds;
  (* Most deltas only add: skip the removal pass and its table. *)
  let dels = match d.Delta.dels with [] -> [] | dels -> remove_rows t dels in
  append_rows t d.Delta.adds;
  match (dels, d.Delta.adds) with
  | [], [] -> ()
  | _ ->
      t.version <- t.version + 1;
      (* An add-only delta is its own effective delta. *)
      let eff = if dels == d.Delta.dels then d else { d with Delta.dels } in
      log_push t (t.version, eff) (Delta.size eff)

(* Logged versions run consecutively up to [t.version], so the gap is the
   newest [t.version - since] entries: take them from [log_back] (newest
   first), and enter [log_front] only when the gap reaches past it. *)
let deltas_since t since =
  if since >= t.version then Some []
  else if since < t.log_floor then None
  else
    let rec from_back acc = function
      | (v, d) :: rest ->
          if v = since + 1 then d :: acc else from_back (d :: acc) rest
      | [] ->
          let rec skip = function
            | (v, _) :: rest when v <= since -> skip rest
            | front -> front
          in
          List.map snd (skip t.log_front) @ acc
    in
    Some (from_back [] t.log_back)

module Derived = struct
  type counts = { hits : int; patches : int; builds : int }

  type 'a kind = {
    id : 'a Type.Id.t;
    mutable epoch : int;  (* slots from an older epoch are cold *)
    mutable served : int;
    mutable patched : int;
    mutable built : int;
  }

  (* One lock for every relation's slots: lookups, patches and installs
     serialise here, builds run outside it. *)
  let lock = Mutex.create ()
  let m_fallbacks = Obs.Metrics.counter "pdms.delta.rebuild_fallbacks"

  let kind () =
    { id = Type.Id.make (); epoch = 0; served = 0; patched = 0; built = 0 }

  exception Cold

  let rec find : type a. a Type.Id.t -> slot list -> a cell =
   fun id -> function
    | [] -> raise_notrace Not_found
    | Slot (id', c) :: slots -> (
        match Type.Id.provably_equal id id' with
        | Some Equal -> c
        | None -> find id slots)

  (* Caller holds [lock].  [k]'s value on [rel] brought current, or
     [Cold] when it must be built. *)
  let serve k patch rel =
    match find k.id rel.derived with
    | exception Not_found -> raise_notrace Cold
    | c when c.epoch <> k.epoch -> raise_notrace Cold
    | c when c.version = rel.version ->
        k.served <- k.served + 1;
        c.value
    | c -> (
        match deltas_since rel c.version with
        | Some ds ->
            let v = patch rel c.value ds in
            c.value <- v;
            c.version <- rel.version;
            k.patched <- k.patched + 1;
            v
        | None ->
            Obs.Metrics.incr m_fallbacks;
            raise_notrace Cold)

  (* Caller holds [lock].  A cell already current at [version] was
     installed by a racing build: keep it, so every caller shares one
     value. *)
  let install k rel version v =
    k.built <- k.built + 1;
    match find k.id rel.derived with
    | c when c.epoch = k.epoch && c.version = version -> c.value
    | c ->
        c.epoch <- k.epoch;
        c.version <- version;
        c.value <- v;
        v
    | exception Not_found ->
        let c = { epoch = k.epoch; version; value = v } in
        rel.derived <- Slot (k.id, c) :: rel.derived;
        v

  (* Locked by hand rather than with [Mutex.protect], whose closure would
     allocate on every hit. *)
  let get k ~build ~patch rel =
    Mutex.lock lock;
    match serve k patch rel with
    | v ->
        Mutex.unlock lock;
        v
    | exception Cold ->
        Mutex.unlock lock;
        let version = rel.version in
        let v = build rel in
        Mutex.protect lock (fun () -> install k rel version v)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.unlock lock;
        Printexc.raise_with_backtrace e bt

  let reset k =
    Mutex.protect lock (fun () ->
        k.epoch <- k.epoch + 1;
        k.served <- 0;
        k.patched <- 0;
        k.built <- 0)

  let counts k =
    Mutex.protect lock (fun () ->
        { hits = k.served; patches = k.patched; builds = k.built })
end

let tuples t =
  match t.rows_list with
  | Some (v, l) when v = t.version -> l
  | _ ->
      let l = List.init t.count_slots (fun i -> t.rows_arr.(i)) in
      t.rows_list <- Some (t.version, l);
      l

let iter f t =
  for i = 0 to t.count_slots - 1 do
    f t.rows_arr.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.count_slots - 1 do
    acc := f !acc t.rows_arr.(i)
  done;
  !acc

let build_index t col =
  let idx = Vtbl.create (max 16 t.count_slots) in
  (* Newest-first within each bucket, as incremental [index_push]
     maintains it. *)
  for i = 0 to t.count_slots - 1 do
    let row = t.rows_arr.(i) in
    index_push idx row.(col) row
  done;
  t.indexes.(col) <- Some idx;
  idx

let find_by t col v =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Relation.find_by: column out of range";
  match t.indexes.(col) with
  | Some idx -> lookup idx v
  | None -> lookup (build_index t col) v

let find_by_bound t bound =
  match bound with
  | [] -> tuples t
  | [ (col, v) ] -> find_by t col v
  | _ ->
      (* Intersect the two most selective posting lists: scan the
         shortest, filtering by the runner-up column. Remaining bound
         columns are the caller's to verify (the evaluator re-checks
         every position anyway). *)
      let postings =
        List.map (fun (col, v) -> ((col, v), find_by t col v)) bound
      in
      let sorted =
        List.sort
          (fun (_, a) (_, b) ->
            Int.compare (List.length a) (List.length b))
          postings
      in
      (match sorted with
      | (_, best) :: ((col2, v2), _) :: _ ->
          List.filter (fun row -> Value.equal row.(col2) v2) best
      | _ -> assert false)

let freeze t =
  for col = 0 to Schema.arity t.schema - 1 do
    if Option.is_none t.indexes.(col) then ignore (build_index t col)
  done

let of_tuples schema rows =
  let t = create schema in
  apply t (Delta.of_rows rows);
  t

let copy t = of_tuples t.schema (tuples t)

let clear t =
  t.version <- t.version + 1;
  t.rows_arr <- [||];
  t.count_slots <- 0;
  t.rows_list <- None;
  Tset.reset t.members;
  drop_indexes t;
  (* The log cannot express "everything went away" compactly; truncate
     it so consumers rebuild. *)
  t.log_front <- [];
  t.log_back <- [];
  t.log_entries <- 0;
  t.log_tuples <- 0;
  t.log_floor <- t.version

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema t.count_slots;
  List.iteri
    (fun i row ->
      if i < 20 then
        Format.fprintf fmt "@\n  (%s)"
          (String.concat ", " (Array.to_list (Array.map Value.to_string row))))
    (tuples t)
