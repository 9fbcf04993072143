open Cq

type arg = Slot of int | Lit of Relalg.Value.t

type catom = { pred : string; args : arg array }

type bound = Free | To of int | Is of Relalg.Value.t

type template = {
  query : Query.t;
  head : catom;
  body : catom array;
  vars : Term.t array;
  distinguished : bool array;
  by_name : int array;
}

(* Small slots share their [Slot i] and [To i] values, so compiling and
   walking allocate none for them. *)
let pool = 64
let slots = Array.init pool (fun i -> Slot i)
let tos = Array.init pool (fun i -> To i)
let slot i = if i < pool then slots.(i) else Slot i
let to_ i = if i < pool then tos.(i) else To i

(* The slot of variable [x] among the [n] known ones, newest first in
   [vars], or [-1]. *)
let rec find_slot x i = function
  | [] -> -1
  | Term.Var y :: _ when String.equal x y -> i
  | _ :: rest -> find_slot x (i - 1) rest

let name t i = match t.vars.(i) with Term.Var x -> x | Term.Const _ -> assert false

let compile (q : Query.t) =
  let vars = ref [] and n = ref 0 in
  let catom (a : Atom.t) =
    let args = Array.make (List.length a.Atom.args) (Lit Relalg.Value.Null) in
    List.iteri
      (fun i t ->
        args.(i) <-
          (match t with
          | Term.Const c -> Lit c
          | Term.Var x ->
              let k = find_slot x (!n - 1) !vars in
              if k >= 0 then slot k
              else begin
                vars := t :: !vars;
                incr n;
                slot (!n - 1)
              end))
      a.Atom.args;
    { pred = a.Atom.pred; args }
  in
  let head = catom q.Query.head in
  let body = Array.of_list (List.map catom q.Query.body) in
  let vars = Array.of_list (List.rev !vars) in
  let distinguished = Array.make !n false in
  Array.iter
    (function Slot i -> distinguished.(i) <- true | Lit _ -> ())
    head.args;
  let by_name = Array.init !n Fun.id in
  let t = { query = q; head; body; vars; distinguished; by_name } in
  Array.sort (fun a b -> String.compare (name t a) (name t b)) t.by_name;
  t

(* [q.(x)] is what query slot [x] is bound to; [v.(j)] what view slot
   [j] is bound to ([To k]: equated with slot [k]). *)
type state = { q : bound array; v : bound array }

let start ~query ~view =
  { q = Array.make (Array.length query.vars) Free;
    v = Array.make (Array.length view.vars) Free }

let rec walk st j = match st.v.(j) with Free -> to_ j | To k -> walk st k | b -> b

let resolve st = function Slot j -> walk st j | Lit c -> Is c

let image st x = match st.q.(x) with To j -> walk st j | b -> b

(* Bind view slot [v] to constant [c], if it is distinguished. *)
let pin ~view st v c =
  view.distinguished.(v)
  && begin
       st.v.(v) <- Is c;
       true
     end

(* Match one argument position: query term [g] against view term [b],
   mutating [st] (a copy the caller owns). *)
let match_pos ~view st g b =
  let vt = resolve st b in
  match g with
  | Lit c -> (
      match vt with
      | Is c' -> Relalg.Value.equal c c'
      | To v -> pin ~view st v c
      | Free -> assert false)
  | Slot x -> (
      match st.q.(x) with
      | Free ->
          st.q.(x) <- vt;
          true
      | _ -> (
          match (image st x, vt) with
          | Is c, Is c' -> Relalg.Value.equal c c'
          | Is c, To v | To v, Is c -> pin ~view st v c
          | To v, To w ->
              v = w
              || view.distinguished.(v) && view.distinguished.(w)
                 && begin
                      (* Head homomorphism: equate two distinguished slots. *)
                      st.v.(w) <- to_ v;
                      true
                    end
          | Free, _ | _, Free -> assert false))

let rec match_from ~view st (g : catom) (b : catom) i =
  i = Array.length g.args
  || (match_pos ~view st g.args.(i) b.args.(i) && match_from ~view st g b (i + 1))

let match_subgoal ~view st (g : catom) (b : catom) =
  if (not (String.equal g.pred b.pred)) || Array.length g.args <> Array.length b.args
  then None
  else begin
    let st = { q = Array.copy st.q; v = Array.copy st.v } in
    if match_from ~view st g b 0 then Some st else None
  end

let maps_to_existential ~view st x =
  match image st x with To v -> not view.distinguished.(v) | Free | Is _ -> false

let same_bound a b =
  match (a, b) with
  | Free, Free -> true
  | To i, To j -> i = j
  | Is c, Is c' -> Relalg.Value.equal c c'
  | (Free | To _ | Is _), _ -> false

(* Bound slots compare by their walked terms, as the substitution's
   bindings would. *)
let same a b =
  let bound st arr i = match arr.(i) with To j -> walk st j | b -> b in
  let side arr_a arr_b =
    let rec go i =
      i = Array.length arr_a
      || (same_bound (bound a arr_a i) (bound b arr_b i) && go (i + 1))
    in
    go 0
  in
  side a.q b.q && side a.v b.v
