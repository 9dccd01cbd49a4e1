(** Supervised execution of one task: containment per attempt.

    {!Ermes_parallel.Parallel} treats one raising task as fatal: the whole
    batch dies with [Worker_failure]. This module is the resilient
    counterpart for batch jobs and daemon requests, where a failure must be
    {e contained} to its own task — the latency-insensitive composition
    idea applied to the runtime itself. {!attempt} runs one task on the
    calling domain and gives it an outcome:

    - a task that raises is {e retried} at once, up to [max_attempts]
      attempts in all;
    - a task still failing after the last attempt is {e quarantined}: the
      caller gets the exception's text and carries on;
    - a task whose attempt overruns the [timeout_s] budget is classified
      [Timed_out] and not retried (the measurement is post-hoc: tasks are
      plain functions and cannot be preempted, so the budget bounds blame,
      not execution).

    Fan-out is the caller's: {!Ermes_runtime.Batch} runs one [attempt] per
    job on {!Ermes_parallel.Parallel.waves}, and each daemon worker runs
    one per request. A pure task fails the same way on every attempt, so
    its outcome does not depend on which domain ran it. *)

type failure = {
  exn : string;  (** [Printexc.to_string] of the last attempt's exception *)
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
    phases), and {!attempt} converts the resulting {!Cancelled} into the
    same [Timed_out] outcome the post-hoc path produces.

    Tokens are domain-safe: any domain may {!cancel} a token while the
    worker owning the task polls {!check}. *)
module Cancel : sig
  type t

  val make : ?deadline_s:float -> ?clock:(unit -> float) -> unit -> t
  (** A live token. [deadline_s] is a budget from now: the token expires
      once [clock () > clock-at-make + deadline_s] (default [clock]:
      [Unix.gettimeofday]). Without [deadline_s] the token only fires via
      {!cancel}. *)

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
  | Timed_out of { attempts : int; elapsed_s : float }
      (** the last attempt overran [timeout_s], or raised {!Cancelled} *)
  | Quarantined of failure
      (** every attempt raised; the task is isolated and the caller
          continues *)

type policy = {
  max_attempts : int;  (** ≥ 1; total attempts, not retries *)
  timeout_s : float option;  (** per-attempt wall budget; [None] = unlimited *)
  clock : unit -> float;  (** time source for [timeout_s] *)
}

val default_policy : policy
(** 3 attempts, no timeout, [Unix.gettimeofday]. *)

val attempt : ?policy:policy -> (unit -> 'a) -> 'a outcome
(** [attempt f] runs [f] on the calling domain under [policy] (default
    {!default_policy}) and classifies it: [Done] on success within budget,
    [Timed_out] on an overrun or {!Cancelled}, [Quarantined] once
    [max_attempts] attempts have raised. Never raises on task failure.
    @raise Invalid_argument when [max_attempts < 1]. *)
