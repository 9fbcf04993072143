(** The paper's running example, made executable: the Figure-3 peer
    schemas (Berkeley and MIT DTDs), the Figure-4 Berkeley-to-MIT
    mapping template, the Figure-2 six-university PDMS, and the mediated
    university schema the matching experiments perturb. *)

(** {2 Figure 3: peer schemas as DTDs} *)

val berkeley_dtd : Xmlmodel.Dtd.t
(** schedule: college list; college: name + dept list; dept: name +
    course list; course: title, size. *)

val mit_dtd : Xmlmodel.Dtd.t
(** catalog: course list; course: name + subject list; subject: title,
    enrollment. *)

val berkeley_instance :
  Util.Prng.t -> colleges:int -> depts:int -> courses:int -> Xmlmodel.Xml.t
(** A random Berkeley.xml conforming to {!berkeley_dtd}. *)

(** {2 Figure 4: the Berkeley-to-MIT mapping template} *)

val berkeley_to_mit : Xmlmodel.Template.t

(** {2 The mediated relational university schema} *)

val mediated_schema : Corpus.Schema_model.t
(** course / person / ta / talk / publication relations; the base the
    perturbation experiments and the corpus generator start from. *)

val corpus_of_variants :
  Util.Prng.t -> n:int -> level:float -> Corpus.Corpus_store.t
(** A corpus of [n] independently perturbed variants of the mediated
    schema (each with fresh sample data) — the "corpus of structures"
    of Figure 5. *)

(** {2 Figure 2: the six-university PDMS} *)

type delearning = {
  catalog : Pdms.Catalog.t;
  peers : (string * Pdms.Peer.t) list;  (** name -> peer, paper order *)
  network : Pdms.Network.t;
  course_counts : (string * int) list;
}

val peer_course_schema : string -> string * string list
(** Each university's own (relation, attributes) shape for course data:
    e.g. mit -> subject(title, enrollment), roma -> corso(titolo,
    iscritti). *)

val build_delearning : Util.Prng.t -> courses_per_peer:int -> delearning
(** Builds the peers, stores [courses_per_peer] courses at each (plus
    one instructor row per course, referencing the course's title), and
    authors equality mappings along the Figure-2 edges (Stanford-
    Berkeley, Stanford-MIT, MIT-Oxford, MIT-Tsinghua, Berkeley-Roma)
    for both the course and the instructor relations. *)

val course_query : Pdms.Peer.t -> Cq.Query.t
(** [q(title, size) :- peer's course relation] in the peer's own
    vocabulary. *)

val course_instructor_query : Pdms.Peer.t -> Cq.Query.t
(** The cross-relation join in the peer's own vocabulary:
    [q(title, person) :- course(title, size), instructor(person, title)] —
    answered across every mapped peer. *)
