(* Run sets and their comparison.

   A run set file holds {"runs": [...]}, one record per benchmark run:
   workload, seed, set label, digest and the end-to-end metric values.
   [compare] puts two sets side by side per metric and workload, with
   the bound BENCHMARK.json gives the metric and a verdict. *)

type run = {
  workload : string;
  set : string;
  seed : int;
  digest : string;
  metrics : (string * float) list;
}

let run_to_json r =
  Json.Obj
    [ ("workload", Json.Str r.workload);
      ("set", Json.Str r.set);
      ("seed", Json.Num (float_of_int r.seed));
      ("digest", Json.Str r.digest);
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.metrics)) ]

let run_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str |> Option.value ~default:"" in
  {
    workload = str "workload";
    set = str "set";
    seed = Option.bind (Json.member "seed" j) Json.to_num |> Option.fold ~none:0 ~some:int_of_float;
    digest = str "digest";
    metrics =
      (match Json.member "metrics" j with
      | Some (Json.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_num v)) kvs
      | _ -> []);
  }

let load path =
  if Sys.file_exists path then
    List.map run_of_json (Json.to_list (Option.value ~default:Json.Null (Json.member "runs" (Json.read_file path))))
  else []

let save path runs =
  let oc = open_out_bin path in
  output_string oc "{\"runs\": [\n";
  List.iteri
    (fun i r ->
      output_string oc ("  " ^ Json.to_string (run_to_json r));
      output_string oc (if i = List.length runs - 1 then "\n" else ",\n"))
    runs;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)

let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(values, n=4) computes
   them (the default "exclusive" method). *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then (median values, median values)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let spread values =
  let q1, q3 = quartiles values in
  (q3 -. q1) /. Float.abs (median values)

type bound = { name : string; higher_better : bool; bound : float }

let bounds_of path =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some name, Some better, Some bound ->
          Some { name; higher_better = better = "higher"; bound }
      | _ -> None)
    (Json.to_list
       (Option.value ~default:Json.Null (Json.member "end_to_end" (Json.read_file path))))

type verdict = Same | Better | Worse | Unresolved

let verdict_name = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let judge b a_vals b_vals =
  let ma = median a_vals and mb = median b_vals in
  (* Positive [worse] means B is worse than A by that share of A. *)
  let change = (mb -. ma) /. Float.abs ma in
  let worse = if b.higher_better then -.change else change in
  let better_than x y = if b.higher_better then x > y else x < y in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better_than y x) a_vals) b_vals
  in
  if Float.max (spread a_vals) (spread b_vals) > b.bound then
    if all_better then Better else Unresolved
  else if worse > b.bound then Worse
  else if worse < -.b.bound then Better
  else Same

(* Split one file's runs by set label (first two labels, in order). *)
let sides files =
  match files with
  | [ a; b ] -> Ok (load a, load b)
  | [ f ] -> (
      let runs = load f in
      let labels =
        List.fold_left
          (fun acc r -> if List.mem r.set acc then acc else acc @ [ r.set ])
          [] runs
      in
      match labels with
      | la :: lb :: _ ->
          Ok
            ( List.filter (fun r -> r.set = la) runs,
              List.filter (fun r -> r.set = lb) runs )
      | _ -> Error (f ^ ": needs runs from two sets"))
  | _ -> Error "compare takes one or two run set files"

(* Prints the table; returns false when a metric got worse or a digest
   disagrees. *)
let compare ~bounds files =
  match sides files with
  | Error msg ->
      prerr_endline msg;
      false
  | Ok (a_runs, b_runs) ->
      let bounds = bounds_of bounds in
      let workloads =
        List.sort_uniq String.compare (List.map (fun r -> r.workload) (a_runs @ b_runs))
      in
      let ok = ref true in
      Printf.printf "%-12s %-20s %12s %12s %23s %23s %6s  %s\n" "workload" "metric"
        "median A" "median B" "quartiles A" "quartiles B" "bound" "verdict";
      List.iter
        (fun wl ->
          let of_side runs = List.filter (fun r -> r.workload = wl) runs in
          let ra = of_side a_runs and rb = of_side b_runs in
          List.iter
            (fun b ->
              let vals runs = List.filter_map (fun r -> List.assoc_opt b.name r.metrics) runs in
              match (vals ra, vals rb) with
              | [], _ | _, [] -> ()
              | av, bv ->
                  let v = judge b av bv in
                  if v = Worse then ok := false;
                  let qa1, qa3 = quartiles av and qb1, qb3 = quartiles bv in
                  Printf.printf "%-12s %-20s %12.4g %12.4g %11.4g-%-11.4g %11.4g-%-11.4g %6.2f  %s\n"
                    wl b.name (median av) (median bv) qa1 qa3 qb1 qb3 b.bound
                    (verdict_name v))
            bounds;
          (* The same seed must give the same transcript on both sides. *)
          List.iter
            (fun r ->
              List.iter
                (fun r' ->
                  if r'.seed = r.seed && r'.digest <> r.digest then begin
                    ok := false;
                    Printf.printf "%-12s digest differs for seed %d: %s vs %s\n" wl r.seed
                      r.digest r'.digest
                  end)
                rb)
            ra)
        workloads;
      !ok
