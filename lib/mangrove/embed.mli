(** In-place annotation embedding (Section 2.1): "the annotations given
    by the user are embedded in the HTML files but invisible to the
    browser. This method both ensures backward compatibility with
    existing web pages and eliminates inconsistency problems arising
    from having multiple copies of the same data."

    We embed by adding a reserved attribute to annotated elements
    ([mangrove:tag="course"]) — browsers ignore unknown attributes, the
    page's rendered content is untouched, and the data lives in exactly
    one place. Text-node annotations attach to the nearest enclosing
    element with a position marker. *)

val embed : Annotator.t -> Xmlmodel.Xml.t
(** The document body with annotations written into its elements.
    Raises [Invalid_argument] if an annotation addresses a text node
    whose parent cannot carry it (never happens for annotator-created
    annotations). *)

val extract :
  schema:Lightweight_schema.t -> url:string -> Xmlmodel.Xml.t -> Annotator.t
(** Rebuild an annotator (document + annotations) from an embedded
    page: the inverse of {!embed}. The stripped document (reserved
    attributes removed) becomes the annotator's page, so
    [embed (extract ~schema ~url (embed a))] is stable. *)
