(** Supervised task execution over an OCaml 5 domain pool.

    {!Ermes_parallel.Parallel} treats one raising task as fatal: the whole
    batch dies with [Worker_failure]. This module is the resilient
    counterpart for long campaigns and batch services, where failures must
    be {e contained per task} — the latency-insensitive composition idea
    applied to the runtime itself. Every task gets its own outcome:

    - a task that raises is {e retried} up to [max_attempts] times with
      capped, deterministically-seeded exponential backoff;
    - a task still failing after the last attempt is {e quarantined} (or
      reported [Failed] when quarantining is off) — the rest of the run is
      unaffected;
    - a task whose attempt overruns the [timeout_s] budget is classified
      [Timed_out] and not retried (the measurement is post-hoc: tasks are
      plain functions and cannot be preempted, so the budget bounds blame,
      not execution);
    - tasks fan out through {!Ermes_parallel.Parallel}, whose degradation
      ladder survives a refused spawn or a dead worker domain: fewer
      domains, and any task a dead worker left unexecuted re-runs on the
      calling domain after the join.

    Determinism: results are slotted by task index, so for pure tasks the
    [Done] subset is bit-identical to a sequential run for every [jobs]
    value, and (since a pure task fails the same way on every attempt) the
    quarantined index set is too. Backoff delays are a pure function of
    [(backoff_seed, task index, attempt)]. Only wall-clock measurements
    ([Timed_out] with a real clock, span durations) depend on scheduling.

    Obs counters (registered up front, under [ermes.runtime]):
    [runtime.tasks], [runtime.retries], [runtime.quarantines],
    [runtime.timeouts], [runtime.task_failures]. *)

type failure = {
  exn : string;  (** [Printexc.to_string] of the last attempt's exception *)
  backtrace : string;
      (** raw backtrace of the last attempt, captured in the worker domain
          ([""] when backtrace recording is off) *)
  attempts : int;  (** how many attempts were made *)
}

exception Cancelled of string
(** Raised by {!Cancel.check} when the token was cancelled or its deadline
    expired. A supervised task that lets it escape is classified
    [Timed_out] — never retried, never quarantined. *)

(** Cooperative cancellation and deadlines.

    The post-hoc [timeout_s] classification bounds {e blame}, not execution:
    a task that overruns still holds its domain until it finishes. For a
    serving layer that is not enough — an expired request must {e stop
    consuming the domain} so the next request can run. Tokens close the gap
    cooperatively: long-running task bodies call {!check} at loop or stage
    boundaries (per exploration iteration, between parse / build / solve
    phases), and the supervisor converts the resulting {!Cancelled} into the
    same [Timed_out] outcome the post-hoc path produces.

    Tokens are domain-safe: any domain may {!cancel} a token while the
    worker owning the task polls {!check}. *)
module Cancel : sig
  type t

  val make : ?deadline_s:float -> ?clock:(unit -> float) -> unit -> t
  (** A live token. [deadline_s] is a budget from now: the token expires
      once [clock () > clock-at-make + deadline_s] (default [clock] is
      [Sys.time]; services install [Unix.gettimeofday]). Without
      [deadline_s] the token only fires via {!cancel}. *)

  val cancel : ?reason:string -> t -> unit
  (** Cancel explicitly (client hung up, server shutting down). The first
      cancellation's reason sticks; later calls are no-ops. *)

  val cancelled : t -> bool

  val status : t -> string option
  (** [None] while live; [Some reason] once cancelled or past the
      deadline. Expiry latches: once observed, it never un-cancels. *)

  val check : t -> unit
  (** @raise Cancelled once the token is cancelled or expired. One atomic
      read (plus one clock read when a deadline is set) — cheap enough for
      inner loops. *)
end

type 'a outcome =
  | Done of 'a
  | Failed of failure
      (** retries exhausted with [quarantine = false] (fail-soft reporting
          without the quarantine ledger) *)
  | Timed_out of { attempts : int; elapsed_s : float }
      (** the last attempt overran [timeout_s] *)
  | Quarantined of failure
      (** retries exhausted; the task is isolated and the run continues *)

type policy = {
  max_attempts : int;  (** ≥ 1; total attempts, not retries *)
  base_backoff_s : float;  (** delay before the first retry *)
  max_backoff_s : float;  (** cap on any single delay *)
  backoff_seed : int;  (** seeds the deterministic jitter *)
  timeout_s : float option;  (** per-attempt wall budget; [None] = unlimited *)
  quarantine : bool;  (** exhausted retries: [Quarantined] vs [Failed] *)
  sleep : float -> unit;
      (** how to wait out a backoff delay. The default discards it —
          in-process retries of deterministic tasks gain nothing from real
          sleeping — but a service front-end may install [Unix.sleepf]. *)
  clock : unit -> float;  (** time source for [timeout_s], default [Sys.time] *)
}

val default_policy : policy
(** 3 attempts, 50 ms base doubling to a 5 s cap, seed 0, no timeout,
    quarantine on, no real sleeping, [Sys.time]. *)

val backoff_delay : policy -> task:int -> attempt:int -> float
(** The delay slept before retry number [attempt] (1-based: the delay after
    the [attempt]-th failed attempt) of task [task]: exponential
    [base·2^(attempt-1)] capped at [max_backoff_s], jittered ±25% by a
    splitmix64 hash of [(backoff_seed, task, attempt)] — deterministic
    across runs and job counts, decorrelated across tasks. *)

type stats = {
  tasks : int;
  completed : int;  (** [Done] outcomes *)
  retries : int;  (** extra attempts beyond each task's first *)
  quarantined : int;
  timed_out : int;
  failed : int;  (** [Failed] outcomes *)
}

val run : ?jobs:int -> ?policy:policy -> int -> (int -> 'a) -> 'a outcome array * stats
(** [run ~jobs ~policy n task] executes [task 0 .. task (n-1)] under
    supervision on up to [jobs] domains (default
    {!Ermes_parallel.Parallel.default_jobs}; clamped to [n] and to the
    host's cores). Tasks must not share mutable state (same contract as
    {!Ermes_parallel.Parallel}). Never raises on task failure — every slot
    holds an outcome. *)

val attempt : ?policy:policy -> (unit -> 'a) -> 'a outcome
(** [attempt f] supervises one task on the calling domain: retries with the
    policy's backoff, post-hoc [timeout_s] classification, {!Cancelled}
    converted to [Timed_out]. The per-request path of a serving front-end,
    where a pool of worker domains already exists and each worker supervises
    the single request it holds. Never raises on task failure. *)
