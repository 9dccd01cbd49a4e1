(** The [ermes batch] job engine: a manifest of [.soc] jobs, each run under
    {!Supervise.attempt}, with per-job isolation of expected failures and a
    JSON + text summary report. The daemon's [batch] verb classifies its
    inline jobs with the same {!classify}.

    Failure taxonomy — the load-bearing design point:

    - {e classifications} (a file that does not parse, a design whose
      analysis or simulation deadlocks, a lint report with errors, a
      simulation that exhausts its cycle watchdog) are returned as
      [Job_failed] values and never retried — rerunning a deterministic
      parse error is wasted work;
    - {e exceptions} (injected crashes, infrastructure trouble) are
      retried at once by the supervisor and end [Job_quarantined] when
      attempts are exhausted — the rest of the batch is unaffected;
    - a job whose attempt overruns the policy's [timeout_s] is
      [Job_timed_out];
    - jobs not yet started when the batch-level [max_seconds] watchdog
      expires are [Job_skipped].

    Exit-code contract (extends the CLI's 0/1/2/3): {!exit_code} is 0 when
    every job is ok, 2 when some jobs failed (including quarantined and
    timed-out ones), 3 when the batch watchdog expired.

    Manifest syntax: one job per line, [#] comments, blank lines ignored:
    [FILE.soc [analyze|lint|simulate] [crash|flaky:N]]. The default action
    is [analyze]. [crash] makes every attempt of the job raise and
    [flaky:N] makes its first [N] attempts raise — documented fault
    injection for exercising (and testing) the retry and quarantine paths
    against a live batch. *)

type action = Analyze | Lint | Simulate

val action_name : action -> string

type inject =
  | No_inject
  | Crash  (** every attempt raises *)
  | Flaky of int  (** the first [n] attempts raise, then the job runs *)

type job = { file : string; action : action; inject : inject }

val job_of_file : ?action:action -> string -> job
(** A plain job with no injection (default action: [Analyze]). *)

val parse_manifest : ?file:string -> string -> (job list, string) result
(** Parse manifest text; [file] names it in error messages. *)

val parse_manifest_file : string -> (job list, string) result

type status =
  | Job_ok of string  (** human detail, e.g. ["cycle time 19/2"] *)
  | Job_failed of { category : string; detail : string }
      (** [category] is stable: ["parse-error"], ["deadlock"], ["lint"],
          ["analysis"], ["sim-watchdog"] *)
  | Job_quarantined of { exn : string; attempts : int }
  | Job_timed_out of { attempts : int; elapsed_s : float }
  | Job_skipped

val status_name : status -> string
(** ["ok"], ["failed"], ["quarantined"], ["timed-out"], ["skipped"] — the
    [status] field of the JSON report. *)

type job_report = { job : job; status : status; attempts : int }

type report = {
  results : job_report list;  (** manifest order *)
  ok : int;
  failed : int;
  quarantined : int;
  timed_out : int;
  skipped : int;
  retries : int;
  watchdog : bool;  (** the batch-level [max_seconds] budget expired *)
}

val classify :
  rounds:int -> action -> Ermes_slm.Soc_format.source -> (string, string * string) result
(** One job's verdict on a file or an inline design text: [Ok detail] or
    [Error (category, detail)], the fields of [Job_ok] and [Job_failed].
    [rounds] is the simulation horizon for [Simulate]. Raises only on
    infrastructure trouble. *)

val run :
  ?jobs:int ->
  ?policy:Supervise.policy ->
  ?max_seconds:float ->
  ?rounds:int ->
  job list ->
  report
(** Process the jobs, one {!Supervise.attempt} each under [policy] (default
    {!Supervise.default_policy}), on up to [jobs] domains through
    {!Ermes_parallel.Parallel.waves}. [rounds] (default 64) is the
    simulation horizon for [simulate] jobs. With [max_seconds] the jobs run
    in waves, and a wave never starts after the budget expires: its jobs
    come back [Job_skipped] without running. The policy's [clock] times
    both the budget and each job's [timeout_s]. Results are deterministic
    for any [jobs] value (pure jobs fail identically on every attempt).
    Obs: span [runtime.batch]. *)

val exit_code : report -> int
(** 0 all ok / 2 some jobs failed / 3 watchdog expired. *)

val to_json : report -> string
(** The machine-readable summary: a [jobs] array (file, action, status,
    optional failure category, detail, attempts) plus totals, [retries],
    [watchdog] and [exit_code]. *)

val pp_text : Format.formatter -> report -> unit
(** One line per job plus a closing summary line. *)
