(* How fast the machine runs right now, from a fixed reference
   computation.

   The benchmark's host is shared. While neighbours load its memory
   system, allocation-heavy code here runs up to twice as slowly, for a
   second to minutes at a time, while pure arithmetic keeps its speed.
   A run that lands in a slow stretch would read as a regression. So the
   benchmark samples this reference every tenth of a second and scales
   each time it reports by how fast the reference ran around it: a time
   [t] measured while the reference took [r] ms on average is reported
   as [t *. nominal_ms /. r]. The reference uses only the standard
   library, so no change to the program under test moves it. It
   allocates the way the program does: short-lived lists of tuples and
   strings, a persistent string map and an array sort. *)

module Smap = Map.Make (String)

let keys = Array.init 600 (fun i -> string_of_int (i * 7919))

let work () =
  let young = ref 0 in
  for r = 1 to 4 do
    let l = List.init 1000 (fun i -> (i, string_of_int (i + r))) in
    young := List.fold_left (fun a (i, s) -> a + i + String.length s) !young l
  done;
  let map = Array.fold_left (fun m k -> Smap.add k (String.length k) m) Smap.empty keys in
  let state = ref 7 in
  let a =
    Array.init 1500 (fun _ ->
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state)
  in
  Array.sort compare a;
  !young + Smap.cardinal map + a.(0)

(* What [work] takes on the measuring VM (Intel Xeon, 2.1 GHz), about
   its median there. *)
let nominal_ms = 1.

(* Milliseconds one [work] takes now. *)
let sample () =
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (work ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6

(* How many times slower than nominal the machine ran while the
   reference took [samples] ms: their mean over [nominal_ms]; 1 for no
   samples. *)
let factor = function
  | [] -> 1.
  | samples ->
      List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples) /. nominal_ms
