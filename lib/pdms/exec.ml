type pruning = {
  use_history : bool;
  use_visited : bool;
  use_goal_memo : bool;
  use_subsumption : bool;
  use_minimize : bool;
  max_depth : int;
  max_rewritings : int;
}

let default_pruning =
  {
    use_history = true;
    use_visited = true;
    use_goal_memo = true;
    use_subsumption = true;
    use_minimize = true;
    max_depth = 128;
    max_rewritings = 2_000;
  }

let no_pruning =
  {
    use_history = false;
    use_visited = false;
    use_goal_memo = false;
    use_subsumption = false;
    use_minimize = false;
    max_depth = 24;
    max_rewritings = 2_000;
  }

type backoff = {
  base_ms : float;
  multiplier : float;
  jitter : float;
}

type retry = {
  max_attempts : int;
  timeout_ms : float;
  backoff : backoff;
}

let default_backoff = { base_ms = 10.0; multiplier = 2.0; jitter = 0.5 }

let default_retry =
  { max_attempts = 3; timeout_ms = 10_000.0; backoff = default_backoff }

type t = {
  jobs : int;
  pruning : pruning;
  retry : retry;
  trace : Obs.Trace.t;
}

let default =
  {
    jobs = 1;
    pruning = default_pruning;
    retry = default_retry;
    trace = Obs.Trace.null;
  }

let make ?(jobs = 1) ?(pruning = default_pruning) ?(retry = default_retry)
    ?(trace = Obs.Trace.null) () =
  { jobs; pruning; retry; trace }

let with_jobs jobs = { default with jobs }
let with_pruning pruning = { default with pruning }
