(** HTML page generation with annotation plans: each generated page
    comes with the list of (node, tag) annotations a user of the
    MANGROVE tool would make — the ground truth driving the MANGROVE
    benchmarks and examples. *)

type annotated_page = {
  doc : Mangrove.Html.t;
  plan : (int list * string) list;
}

val course_page :
  Util.Prng.t -> host:string -> page_id:int -> courses:int -> annotated_page

val department :
  Util.Prng.t ->
  host:string ->
  people:int ->
  course_pages:int ->
  courses_per_page:int ->
  annotated_page list
(** A department web: one page per person, several course pages, a talk
    calendar, and one publication page per person. *)

val annotate : Mangrove.Annotator.t -> (int list * string) list -> unit
(** Apply a plan (raises on schema violations — plans are valid against
    {!Mangrove.Lightweight_schema.department}). *)

val publish_department :
  Util.Prng.t ->
  repo:Mangrove.Repository.t ->
  host:string ->
  people:int ->
  course_pages:int ->
  courses_per_page:int ->
  int
(** Generate, annotate and publish a whole department; returns the
    number of pages published. *)
