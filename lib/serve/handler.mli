(** Verb implementations for the daemon's worker domains.

    One request in, one structured reply out — never an exception (the
    server additionally wraps {!execute} in {!Ermes_runtime.Supervise.attempt}
    so that even a handler bug is contained as a [crash] reply rather than a
    worker death). Verbs:

    - [analyze] — certified cycle-time analysis; consults the warm cache
      keyed by design hash, or a named incremental session when the request
      carries one;
    - [lint] — the E/W diagnostics of [ermes lint], report embedded as JSON;
    - [dse] — the exploration loop toward a target cycle time, cooperative
      cancellation once per iteration;
    - [batch] — a list of inline design jobs (analyze/lint/simulate), each
      isolated, cancellation checked between jobs; every verdict comes from
      {!Ermes_runtime.Batch.classify}, as in [ermes batch];
    - [ping] — no-op (liveness; with an [inject] it occupies a worker, which
      is how the tests make overload deterministic);
    - [session-open] / [session-close] — manage incremental sessions.

    Statuses map onto the CLI exit contract via {!Proto.code_of_status}.

    [inject] is the documented fault hook (mirroring [ermes batch]):
    ["crash"], ["flaky:N"], ["sleep:MS"], ["kill-worker"] — the last one is
    interpreted by the server loop, not here, because its whole point is to
    escape the per-request containment. *)

module Cancel = Ermes_runtime.Supervise.Cancel

type deps = {
  cache : (string * (string * Proto.json) list) Cache.t;
      (** design hash → (status, reply fields) of a certified analysis *)
  sessions : Session.table;
  rounds : int;  (** simulation horizon for batch [simulate] jobs *)
}

type inject = No_inject | Crash | Flaky of int | Sleep of int | Kill_worker

val inject_of_body : Proto.json -> (inject, string) result
(** Reads the optional ["inject"] field. *)

val execute :
  deps -> cancel:Cancel.t -> attempts:int ref -> client:string -> Proto.request -> Proto.json
(** Run one request to a reply. Applies the request's [inject] first (so
    retries see it again), then dispatches on the verb. Exceptions escape —
    containment is the supervisor's job. *)
