type kind = Exact | Containment

type t = { kind : kind; view : Cq.Query.t }

let make kind view =
  if not (Cq.Query.is_safe view) then
    invalid_arg "Storage_desc.make: unsafe view";
  { kind; view }

let identity peer ~rel =
  let attrs =
    match Peer.attrs peer rel with
    | Some attrs -> attrs
    | None ->
        invalid_arg
          (Printf.sprintf "Storage_desc.identity: %s has no relation %s"
             (Peer.name peer) rel)
  in
  let args = List.map (fun a -> Cq.Term.v ("X_" ^ a)) attrs in
  let head = Cq.Atom.make (Peer.stored_pred peer rel) args in
  let body = [ Peer.atom peer rel args ] in
  make Exact (Cq.Query.make head body)

let stored_pred t = t.view.Cq.Query.head.Cq.Atom.pred

let pp fmt t =
  let op = match t.kind with Exact -> "=" | Containment -> "⊆" in
  Format.fprintf fmt "%s %s %a" (stored_pred t) op Cq.Query.pp t.view
