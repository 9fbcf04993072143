(** Scoring matchers against ground truth. *)

type correspondence = {
  src : string * string;  (** (rel, attr) in the source schema *)
  dst : string;  (** mediated label, or target (rel.attr) rendered *)
}

type scores = {
  precision : float;
  recall : float;
  f1 : float;
  accuracy : float;
      (** fraction of ground-truth source columns assigned their correct
          target — LSD's "matching accuracy" *)
}

val score : predicted:correspondence list -> truth:correspondence list -> scores

val of_assignment :
  (Column.t * string option) list -> correspondence list
(** Drop unassigned columns. *)
