type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  h_mutex : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()
let switch = Atomic.make true

let set_enabled b = Atomic.set switch b

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt registry name with
    | Some (Counter c) -> c
    | Some _ ->
        Mutex.unlock registry_mutex;
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
             name)
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add registry name (Counter c);
        c
  in
  Mutex.unlock registry_mutex;
  c

let gauge name =
  Mutex.lock registry_mutex;
  let g =
    match Hashtbl.find_opt registry name with
    | Some (Gauge g) -> g
    | Some _ ->
        Mutex.unlock registry_mutex;
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
             name)
    | None ->
        let g = Atomic.make 0. in
        Hashtbl.add registry name (Gauge g);
        g
  in
  Mutex.unlock registry_mutex;
  g

let histogram name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt registry name with
    | Some (Histogram h) -> h
    | Some _ ->
        Mutex.unlock registry_mutex;
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
             name)
    | None ->
        let h =
          {
            h_mutex = Mutex.create ();
            h_count = 0;
            h_sum = 0.;
            h_min = infinity;
            h_max = neg_infinity;
          }
        in
        Hashtbl.add registry name (Histogram h);
        h
  in
  Mutex.unlock registry_mutex;
  h

let incr c = if Atomic.get switch then ignore (Atomic.fetch_and_add c 1)
let add c n = if Atomic.get switch then ignore (Atomic.fetch_and_add c n)
let set_gauge g v = if Atomic.get switch then Atomic.set g v

let observe h v =
  if Atomic.get switch then begin
    Mutex.lock h.h_mutex;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    Mutex.unlock h.h_mutex
  end

type histogram_stats = { count : int; sum : float; min : float; max : float }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot () =
  Mutex.lock registry_mutex;
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> counters := (name, Atomic.get c) :: !counters
      | Gauge g -> gauges := (name, Atomic.get g) :: !gauges
      | Histogram h ->
          Mutex.lock h.h_mutex;
          let stats =
            { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max }
          in
          Mutex.unlock h.h_mutex;
          histograms := (name, stats) :: !histograms)
    registry;
  Mutex.unlock registry_mutex;
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort by_name !histograms;
  }

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c 0
      | Gauge g -> Atomic.set g 0.
      | Histogram h ->
          Mutex.lock h.h_mutex;
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Mutex.unlock h.h_mutex)
    registry;
  Mutex.unlock registry_mutex

let counter_value snap name =
  match List.assoc_opt name snap.counters with Some v -> v | None -> 0

let find_histogram snap name = List.assoc_opt name snap.histograms

let render snap =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    snap.counters;
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s %g\n" name v))
    snap.gauges;
  List.iter
    (fun (name, h) ->
      if h.count = 0 then
        Buffer.add_string buf (Printf.sprintf "%s count=0\n" name)
      else
        Buffer.add_string buf
          (Printf.sprintf "%s count=%d sum=%g min=%g max=%g mean=%g\n" name
             h.count h.sum h.min h.max
             (h.sum /. float_of_int h.count)))
    snap.histograms;
  Buffer.contents buf

let to_json snap =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str name;
      Buffer.add_string buf (Printf.sprintf ":%d" v))
    snap.counters;
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      str name;
      Buffer.add_string buf (Printf.sprintf ":%g" v))
    snap.gauges;
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      str name;
      if h.count = 0 then Buffer.add_string buf ":{\"count\":0}"
      else
        Buffer.add_string buf
          (Printf.sprintf ":{\"count\":%d,\"sum\":%g,\"min\":%g,\"max\":%g}"
             h.count h.sum h.min h.max))
    snap.histograms;
  Buffer.add_string buf "}}";
  Buffer.contents buf
