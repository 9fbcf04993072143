let mutate ~alphabet input ops =
  List.fold_left
    (fun s (op, i, j) ->
      let n = String.length s in
      let at = i mod (n + 1) in
      let before = String.sub s 0 at and after = String.sub s at (n - at) in
      match op with
      | 0 when at < n -> before ^ String.sub s (at + 1) (n - at - 1)
      | 1 ->
          before ^ String.make 1 alphabet.[j mod String.length alphabet] ^ after
      | 2 -> before
      | 3 when n > 0 ->
          let from = j mod n in
          before ^ String.sub s from (min 8 (n - from)) ^ after
      | _ -> s)
    input ops

let mutations ~alphabet seeds =
  let seeds = Array.of_list seeds in
  QCheck.make
    ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map2
        (fun k ops -> mutate ~alphabet seeds.(k) ops)
        (int_bound (Array.length seeds - 1))
        (list_size (int_range 1 4)
           (triple (int_bound 3) (int_bound 100_000) (int_bound 100_000))))

let never_raises ~name ~alphabet seeds parse =
  QCheck.Test.make ~name ~count:500 (mutations ~alphabet seeds) (fun text ->
      match parse text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))
