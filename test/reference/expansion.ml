let expand ~views r = Cq.Unfold.expand views r

let is_contained_rewriting ~views r q =
  (* The target query's signature is loop-invariant; precompute it so
     each expansion pays only its own signature + (if compatible) the
     homomorphism search. *)
  let super = Cq.Signature.of_query q in
  List.for_all
    (fun e ->
      Cq.Containment.contained_in_with ~sub:(Cq.Signature.of_query e) ~super e
        q)
    (expand ~views r)
