let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let levenshtein_sim a b =
  let m = max (String.length a) (String.length b) in
  if m = 0 then 1.0
  else 1.0 -. (float_of_int (levenshtein a b) /. float_of_int m)

(* Character n-grams of the padded string; [ngrams 3 "ab"] pads so short
   strings still produce grams. *)
let ngrams n s =
  if n <= 0 then invalid_arg "Strdist.ngrams: n must be positive";
  let padded = String.make (n - 1) '#' ^ s ^ String.make (n - 1) '#' in
  let len = String.length padded in
  let rec go i acc =
    if i + n > len then List.rev acc else go (i + 1) (String.sub padded i n :: acc)
  in
  go 0 []

module Sset = Set.Make (String)

let jaccard xs ys =
  let sx = Sset.of_list xs and sy = Sset.of_list ys in
  if Sset.is_empty sx && Sset.is_empty sy then 1.0
  else
    let inter = Sset.cardinal (Sset.inter sx sy) in
    let union = Sset.cardinal (Sset.union sx sy) in
    float_of_int inter /. float_of_int union

let dice xs ys =
  let sx = Sset.of_list xs and sy = Sset.of_list ys in
  let cx = Sset.cardinal sx and cy = Sset.cardinal sy in
  if cx = 0 && cy = 0 then 1.0
  else
    let inter = Sset.cardinal (Sset.inter sx sy) in
    2.0 *. float_of_int inter /. float_of_int (cx + cy)

let ngram_sim ?(n = 3) a b = dice (ngrams n a) (ngrams n b)
