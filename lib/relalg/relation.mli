(** An in-memory relation: a schema and a bag of tuples in insertion
    order, with a hash-set membership structure (O(1) [mem]) and
    per-column hash indexes.  Indexes are built lazily and maintained
    incrementally on insertion; deletion drops them.

    {b Mutation is unified}: every change goes through {!apply} with an
    explicit {!Delta.t} (a folded multiset of row insertions and
    removals).  Each effective application bumps {!version} by one.
    Derived state kept on the relation ({!Derived}: planner statistics,
    a keyword index entry) is patched from the effective deltas
    instead of rebuilt: each is queued on the relation's live derived
    slots, and a relation with none keeps nothing. *)

type tuple = Value.t array
type t

val tuple_equal : tuple -> tuple -> bool
(** Same arity and {!Value.equal} column by column: the tuple equality
    {!mem} and {!Delta.compose} use. *)

(** First-class change descriptions: what {!apply} consumes and what
    a derived slot's queue holds.  [adds] and [dels] are multisets (a tuple
    may appear several times); applying means "remove one copy per
    [dels] occurrence, then append one copy per [adds] occurrence, in
    list order". *)
module Delta : sig
  type t

  val empty : t
  val add : tuple -> t
  (** Single-row insertion. *)

  val remove : tuple -> t
  (** Single-copy removal. *)

  val of_rows : tuple list -> t
  (** Insert-only delta, rows appended in list order. *)

  val removes : tuple list -> t

  val make : ?adds:tuple list -> ?dels:tuple list -> unit -> t
  (** Removals are applied before additions. *)

  val adds : t -> tuple list
  val dels : t -> tuple list
  val is_empty : t -> bool

  val size : t -> int
  (** [List.length adds + List.length dels]. *)

  val compose : t -> t -> t
  (** [compose a b]: [b] happens after [a].  Add-then-del pairs cancel
      exactly (the row was never observable); del-then-add pairs are
      both kept so positional consumers see both events. *)
end

val create : Schema.t -> t
val schema : t -> Schema.t
val cardinality : t -> int

val version : t -> int
(** Mutation counter: bumped once by every {e effective} {!apply} and by
    [clear], so it identifies a state of this relation; derived state
    computed at another version is stale. *)

val apply : t -> Delta.t -> unit
(** The single mutation entry point.  Removals first: one copy per
    [dels] occurrence (absent tuples are ignored), order-preserving.
    Then additions: one copy appended per [adds] occurrence (bag
    semantics — callers wanting set semantics guard with {!mem}).
    Raises [Invalid_argument] on arity mismatch.  An application with
    no effect (e.g. removals of absent tuples only) does not bump the
    version.  The {e effective} delta — what actually changed — is
    queued on each live {!Derived} slot for its next read. *)

(** Derived state kept on the relation itself, one slot per kind
    (planner statistics, a keyword index entry), so it lives and dies
    with its relation.  Each effective {!apply} queues its delta on
    every live slot; a read folds the slot's queue, oldest first,
    through the kind's [patch], and serves an empty queue's value as it
    is.  A slot is rebuilt when cold; one whose unread queue passes 512
    deltas or 8,192 rows is dropped at that {!apply}, and so is every
    slot at a {!clear}, each counted in [pdms.delta.rebuild_fallbacks]
    and rebuilt on its next read.

    One process-wide lock covers every lookup, queue, patch and
    install, so domains sharing a relation may ask for its derived
    state at once: its slot list is written only under that lock.
    Builds run outside it; racing builders of one state all get the
    value installed first.  Writes to a relation are not concurrent
    with reads of it. *)
module Derived : sig
  type 'a kind
  (** One kind of derived value, with its hit/patch/build counts. *)

  val kind : unit -> 'a kind

  val get :
    'a kind ->
    build:(t -> 'a) ->
    patch:(t -> 'a -> Delta.t list -> 'a) ->
    t ->
    'a
  (** [get k ~build ~patch rel] is [k]'s value for [rel]'s current
      state.  [patch rel v ds] brings [v] forward over the effective
      deltas [ds] queued since it was last read, oldest first (called
      under the lock; it may update [v] in place); [build rel] computes
      the value from scratch (outside the lock).  A hit takes the lock
      once and allocates nothing. *)

  val reset : 'a kind -> unit
  (** Make every slot of this kind cold and zero its counts; other
      kinds are untouched. *)

  type counts = {
    hits : int;  (** served as they were *)
    patches : int;  (** served after a patch *)
    builds : int;  (** built, cold or after a drop *)
  }

  val counts : 'a kind -> counts
  (** Since the kind was made or last {!reset}. *)
end

val mem : t -> tuple -> bool
(** Constant-time membership via the internal tuple hash set. *)

val tuples : t -> tuple list
(** All rows, oldest first (insertion order).  Memoised per version —
    O(1) on repeated calls against an unchanged relation. *)

val iter : (tuple -> unit) -> t -> unit
val fold : ('a -> tuple -> 'a) -> 'a -> t -> 'a

val find_by : t -> int -> Value.t -> tuple list
(** [find_by t col v] returns tuples whose [col]-th value equals [v],
    via a lazily built hash index. *)

val find_by_bound : t -> (int * Value.t) list -> tuple list
(** Candidate tuples for a conjunction of column bindings: the two most
    selective posting lists are intersected (the shortest is scanned,
    filtered by the runner-up column). With two or more bindings the
    result may still contain tuples violating the {e remaining}
    bindings — callers must re-verify. [[]] returns all tuples. *)

val of_tuples : Schema.t -> tuple list -> t

val copy : t -> t
(** The same rows in a new relation, with no {!Derived} slots. *)

val clear : t -> unit
(** Empties the relation and drops its {!Derived} slots, which rebuild
    on their next read. *)

val pp : Format.formatter -> t -> unit
