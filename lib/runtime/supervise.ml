module Parallel = Ermes_parallel.Parallel
module Obs = Ermes_obs.Obs

type failure = { exn : string; backtrace : string; attempts : int }

exception Cancelled of string

module Cancel = struct
  (* A token is one atomic cell: [None] = live, [Some reason] = cancelled.
     The deadline is immutable, so [check] is one atomic read plus (when a
     deadline is set) one clock read — cheap enough for inner loops. *)
  type t = {
    reason : string option Atomic.t;
    deadline : float option;  (** absolute, in [clock]'s timebase *)
    cl : unit -> float;
  }

  let make ?deadline_s ?(clock = Sys.time) () =
    {
      reason = Atomic.make None;
      deadline = Option.map (fun d -> clock () +. d) deadline_s;
      cl = clock;
    }

  let cancel ?(reason = "cancelled") t =
    (* First cancellation wins; later ones keep the original reason. *)
    ignore (Atomic.compare_and_set t.reason None (Some reason))

  let status t =
    match Atomic.get t.reason with
    | Some _ as s -> s
    | None -> (
      match t.deadline with
      | Some d when t.cl () > d ->
        (* Latch the expiry so [status]/[check] stay consistent even if the
           clock were to step backwards afterwards. *)
        cancel ~reason:"deadline exceeded" t;
        Atomic.get t.reason
      | _ -> None)

  let cancelled t = status t <> None

  let check t =
    match status t with None -> () | Some reason -> raise (Cancelled reason)
end

type 'a outcome =
  | Done of 'a
  | Failed of failure
  | Timed_out of { attempts : int; elapsed_s : float }
  | Quarantined of failure

type policy = {
  max_attempts : int;
  base_backoff_s : float;
  max_backoff_s : float;
  backoff_seed : int;
  timeout_s : float option;
  quarantine : bool;
  sleep : float -> unit;
  clock : unit -> float;
}

let default_policy =
  {
    max_attempts = 3;
    base_backoff_s = 0.05;
    max_backoff_s = 5.0;
    backoff_seed = 0;
    timeout_s = None;
    quarantine = true;
    sleep = ignore;
    clock = Sys.time;
  }

(* splitmix64 finalizer — the same mixer {!Ermes_synth.Prng} builds on, inlined
   so the supervision layer stays free of the synthesis stack. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let backoff_delay policy ~task ~attempt =
  let raw = policy.base_backoff_s *. (2. ** float_of_int (attempt - 1)) in
  let capped = Float.min policy.max_backoff_s raw in
  (* ±25% jitter from a hash of (seed, task, attempt): identical across runs
     and job counts, decorrelated across tasks so a retry storm does not
     re-synchronize. *)
  let h =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int policy.backoff_seed) 0x9e3779b97f4a7c15L)
         (Int64.add (Int64.mul (Int64.of_int task) 0x1000003L) (Int64.of_int attempt)))
  in
  let unit_ = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992. in
  Float.min policy.max_backoff_s (capped *. (0.75 +. (0.5 *. unit_)))

type stats = {
  tasks : int;
  completed : int;
  retries : int;
  quarantined : int;
  timed_out : int;
  failed : int;
}

(* One task under the policy: attempt / classify / retry to a terminal
   outcome. Never lets a task's exception escape: every slot gets an outcome. *)
let supervised policy retries task i =
  let rec go attempt =
    let t0 = policy.clock () in
    match task i with
    | v -> (
      let elapsed = policy.clock () -. t0 in
      match policy.timeout_s with
      | Some budget when elapsed > budget ->
        (* Post-hoc classification: the attempt did complete, but charging
           its result would hide that the job blew its budget. Deterministic
           reruns would blow it again, so timeouts are not retried. *)
        Timed_out { attempts = attempt; elapsed_s = elapsed }
      | _ -> Done v)
    | exception Cancelled _ ->
      (* Cooperative deadline/cancellation: the task noticed its budget was
         gone ({!Cancel.check}) and stopped consuming the domain. Same
         classification as the post-hoc budget overrun, and like it the
         attempt is not retried — a rerun would expire the same way. *)
      Timed_out { attempts = attempt; elapsed_s = policy.clock () -. t0 }
    | exception e ->
      let backtrace =
        if Printexc.backtrace_status () then
          Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
        else ""
      in
      let f = { exn = Printexc.to_string e; backtrace; attempts = attempt } in
      if attempt < policy.max_attempts then begin
        Atomic.incr retries;
        policy.sleep (backoff_delay policy ~task:i ~attempt);
        go (attempt + 1)
      end
      else if policy.quarantine then Quarantined f
      else Failed f
  in
  go 1

let run ?jobs ?(policy = default_policy) n task =
  if policy.max_attempts < 1 then invalid_arg "Supervise.run: max_attempts < 1";
  Obs.span "runtime.supervise" @@ fun () ->
  List.iter (Obs.incr ~by:0)
    [
      "runtime.tasks"; "runtime.retries"; "runtime.quarantines";
      "runtime.timeouts"; "runtime.task_failures";
    ];
  let retries = Atomic.make 0 in
  let outcomes = Parallel.init ?jobs (max n 0) (supervised policy retries task) in
  let completed = ref 0 and quarantined = ref 0 in
  let timed_out = ref 0 and failed = ref 0 in
  Array.iter
    (function
      | Done _ -> incr completed
      | Failed _ -> incr failed
      | Timed_out _ -> incr timed_out
      | Quarantined _ -> incr quarantined)
    outcomes;
  let stats =
    {
      tasks = n;
      completed = !completed;
      retries = Atomic.get retries;
      quarantined = !quarantined;
      timed_out = !timed_out;
      failed = !failed;
    }
  in
  (* Counters recorded once, on the calling domain: values stay deterministic
     for deterministic tasks, whatever the scheduling was. *)
  Obs.incr ~by:stats.tasks "runtime.tasks";
  Obs.incr ~by:stats.retries "runtime.retries";
  Obs.incr ~by:stats.quarantined "runtime.quarantines";
  Obs.incr ~by:stats.timed_out "runtime.timeouts";
  Obs.incr ~by:stats.failed "runtime.task_failures";
  (outcomes, stats)

(* One task, this domain, full retry/backoff/timeout/cancellation
   classification — the per-request path of a serving front-end, where the
   pool already exists and spawning domains per call would defeat it. *)
let attempt ?(policy = default_policy) f =
  if policy.max_attempts < 1 then invalid_arg "Supervise.attempt: max_attempts < 1";
  let retries = Atomic.make 0 in
  supervised policy retries (fun _ -> f ()) 0
