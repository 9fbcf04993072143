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

(* A row with its [tuple_hash]: the membership table's key, so a row is
   hashed once per append or lookup, not once per table probe. *)
type key = { hash : int; row : tuple }

let key row = { hash = tuple_hash row; row }

module Tset = Hashtbl.Make (struct
  type t = key

  let equal a b = a.hash = b.hash && tuple_equal a.row b.row
  let hash k = k.hash
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

(* One kind of derived value ({!Derived}): slots from an older [epoch]
   are cold; the counts are since the kind was made or last reset. *)
type 'a kind = {
  id : 'a Type.Id.t;
  mutable epoch : int;
  mutable served : int;
  mutable patched : int;
  mutable built : int;
}

(* One kind's derived value on one relation, computed at [epoch], with
   the effective deltas applied since it was last read: [queue] newest
   first, [queued] deltas of [queued_rows] rows in all. *)
type 'a cell = {
  mutable epoch : int;
  mutable value : 'a;
  mutable queue : Delta.t list;
  mutable queued : int;
  mutable queued_rows : int;
}

type slot = Slot : 'a kind * 'a cell -> slot

type t = {
  schema : Schema.t;
  mutable version : int;
  (* Rows in insertion order: slot [0 .. count_slots - 1] of [rows_arr].
     Appends are amortised O(1); removal compacts in place preserving
     order, so derived structures can mirror slots stably. *)
  mutable rows_arr : tuple array;
  (* [tuple_hash] of each slot's row, taken at append. *)
  mutable hashes : int array;
  mutable count_slots : int;
  (* Memoised oldest-first list view of the rows, keyed by version. *)
  mutable rows_list : (int * tuple list) option;
  (* Multiplicity per distinct tuple: O(1) [mem]. *)
  members : int Tset.t;
  (* By column: value -> tuples, newest first. Built lazily, then
     maintained incrementally on insert; dropped wholesale on
     delete/clear. *)
  indexes : tuple list Vtbl.t option array;
  (* At most one slot per derived kind, read and written only under
     [Derived.lock]. *)
  mutable derived : slot list;
}

let create schema =
  {
    schema;
    version = 0;
    rows_arr = [||];
    hashes = [||];
    count_slots = 0;
    rows_list = None;
    members = Tset.create 16;
    indexes = Array.make (Schema.arity schema) None;
    derived = [];
  }

let schema t = t.schema
let version t = t.version
let cardinality t = t.count_slots

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
    let arr = Array.make cap' [||] and hashes = Array.make cap' 0 in
    Array.blit t.rows_arr 0 arr 0 t.count_slots;
    Array.blit t.hashes 0 hashes 0 t.count_slots;
    t.rows_arr <- arr;
    t.hashes <- hashes
  end

let append_row t row =
  grow t;
  let k = key row in
  t.rows_arr.(t.count_slots) <- row;
  t.hashes.(t.count_slots) <- k.hash;
  t.count_slots <- t.count_slots + 1;
  (match Tset.find_opt t.members k with
  | Some m -> Tset.replace t.members k (m + 1)
  | None -> Tset.add t.members k 1);
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

let mem t row = Tset.mem t.members (key row)

(* Remove one copy per del occurrence (multiset subtraction), lowest
   slot first, in a single order-preserving compaction pass.  A slot is
   looked up in [wanted] by the hash it stored at append, so the pass
   hashes the dels only, never a live row.  Returns the effective
   removals (absent tuples are dropped). *)
let remove_rows t dels =
  let wanted = Tset.create (max 4 (List.length dels)) in
  let effective = ref [] in
  List.iter
    (fun row ->
      let k = key row in
      let have = Option.value ~default:0 (Tset.find_opt t.members k) in
      let already = Option.value ~default:0 (Tset.find_opt wanted k) in
      if already < have then begin
        Tset.replace wanted k (already + 1);
        effective := row :: !effective
      end)
    dels;
  if Tset.length wanted = 0 then []
  else begin
    let dst = ref 0 in
    for src = 0 to t.count_slots - 1 do
      let k = { hash = t.hashes.(src); row = t.rows_arr.(src) } in
      let pending = Option.value ~default:0 (Tset.find_opt wanted k) in
      if pending > 0 then begin
        Tset.replace wanted k (pending - 1);
        (match Tset.find_opt t.members k with
        | Some 1 -> Tset.remove t.members k
        | Some m -> Tset.replace t.members k (m - 1)
        | None -> ())
      end
      else begin
        t.rows_arr.(!dst) <- k.row;
        t.hashes.(!dst) <- k.hash;
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

module Derived = struct
  type nonrec 'a kind = 'a kind
  type counts = { hits : int; patches : int; builds : int }

  (* One lock for every relation's slots: lookups, queues, patches and
     installs serialise here, builds run outside it. *)
  let lock = Mutex.create ()
  let m_fallbacks = Obs.Metrics.counter "pdms.delta.rebuild_fallbacks"

  (* Bounds on a slot's unread queue, so a relation written often and
     read rarely keeps a bounded backlog: past either, the slot is
     dropped and rebuilt on its next read. *)
  let max_queued = 512
  let max_queued_rows = 8192

  let kind () =
    { id = Type.Id.make (); epoch = 0; served = 0; patched = 0; built = 0 }

  exception Cold

  let rec find : type a. a Type.Id.t -> slot list -> a cell =
   fun id -> function
    | [] -> raise_notrace Not_found
    | Slot (k, c) :: slots -> (
        match Type.Id.provably_equal id k.id with
        | Some Equal -> c
        | None -> find id slots)

  (* Caller holds [lock].  [slots] with [d] ([rows] rows) queued on each
     warm one.  A cold slot is dropped, and so is one whose queue would
     pass the bounds (counted as a fallback); with none dropped, the
     list itself is returned. *)
  let rec enqueue d rows = function
    | [] -> []
    | (Slot (k, c) as s) :: rest as slots ->
        let rest' = enqueue d rows rest in
        if c.epoch <> k.epoch then rest'
        else if c.queued = max_queued || c.queued_rows + rows > max_queued_rows
        then begin
          Obs.Metrics.incr m_fallbacks;
          rest'
        end
        else begin
          c.queue <- d :: c.queue;
          c.queued <- c.queued + 1;
          c.queued_rows <- c.queued_rows + rows;
          if rest' == rest then slots else s :: rest'
        end

  let push rel d =
    Mutex.lock lock;
    rel.derived <- enqueue d (Delta.size d) rel.derived;
    Mutex.unlock lock

  (* Every slot goes; a warm one counts as a fallback. *)
  let drop_all rel =
    Mutex.protect lock (fun () ->
        List.iter
          (fun (Slot (k, c)) ->
            if c.epoch = k.epoch then Obs.Metrics.incr m_fallbacks)
          rel.derived;
        rel.derived <- [])

  (* [c] holds [v] with nothing queued. *)
  let settle c v =
    c.value <- v;
    c.queue <- [];
    c.queued <- 0;
    c.queued_rows <- 0

  (* Caller holds [lock].  [k]'s value on [rel], its queue folded in
     oldest first, or [Cold] when it must be built. *)
  let serve k patch rel =
    match find k.id rel.derived with
    | exception Not_found -> raise_notrace Cold
    | c when c.epoch <> k.epoch -> raise_notrace Cold
    | { queue = []; value; _ } ->
        k.served <- k.served + 1;
        value
    | c ->
        let v = patch rel c.value (List.rev c.queue) in
        settle c v;
        k.patched <- k.patched + 1;
        v

  (* Caller holds [lock].  A warm cell was installed by a racing build
     of the same state: keep it, so every caller shares one value. *)
  let install k rel v =
    k.built <- k.built + 1;
    match find k.id rel.derived with
    | c when c.epoch = k.epoch -> c.value
    | c ->
        c.epoch <- k.epoch;
        settle c v;
        v
    | exception Not_found ->
        let c =
          { epoch = k.epoch; value = v; queue = []; queued = 0; queued_rows = 0 }
        in
        rel.derived <- Slot (k, c) :: rel.derived;
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
        let v = build rel in
        Mutex.protect lock (fun () -> install k rel v)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.unlock lock;
        Printexc.raise_with_backtrace e bt

  let reset (k : _ kind) =
    Mutex.protect lock (fun () ->
        k.epoch <- k.epoch + 1;
        k.served <- 0;
        k.patched <- 0;
        k.built <- 0)

  let counts k =
    Mutex.protect lock (fun () ->
        { hits = k.served; patches = k.patched; builds = k.built })
end

let apply t (d : Delta.t) =
  check_arity "apply (del)" t d.Delta.dels;
  check_arity "apply (add)" t d.Delta.adds;
  (* Most deltas only add: skip the removal pass and its table. *)
  let dels = match d.Delta.dels with [] -> [] | dels -> remove_rows t dels in
  append_rows t d.Delta.adds;
  match (dels, d.Delta.adds) with
  | [], [] -> ()
  | _ -> (
      t.version <- t.version + 1;
      match t.derived with
      | [] -> ()
      | _ :: _ ->
          (* An add-only delta is its own effective delta. *)
          Derived.push t
            (if dels == d.Delta.dels then d else { d with Delta.dels }))

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

let of_tuples schema rows =
  let t = create schema in
  apply t (Delta.of_rows rows);
  t

let copy t = of_tuples t.schema (tuples t)

let clear t =
  t.version <- t.version + 1;
  t.rows_arr <- [||];
  t.hashes <- [||];
  t.count_slots <- 0;
  t.rows_list <- None;
  Tset.reset t.members;
  drop_indexes t;
  (* No delta says "everything went away" compactly: derived state
     rebuilds instead. *)
  Derived.drop_all t

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema t.count_slots;
  List.iteri
    (fun i row ->
      if i < 20 then
        Format.fprintf fmt "@\n  (%s)"
          (String.concat ", " (Array.to_list (Array.map Value.to_string row))))
    (tuples t)
