(** The [ermes serve] daemon: a select-based event loop accepting
    length-prefixed JSON requests ({!Proto}) over a unix socket (and
    optionally TCP on localhost), dispatching them to a pool of worker
    domains through a bounded admission queue ({!Admission}).

    Robustness contract (see DESIGN.md §12):

    - {e backpressure, not collapse} — when the queue is full the request is
      answered [overloaded] with a deterministic [retry_after_ms] hint, in
      constant time, instead of being buffered without bound;
    - {e deadlines, not hangs} — every request carries a deadline (client
      [deadline_ms], clamped to a server maximum); expiry is enforced
      cooperatively through {!Ermes_runtime.Supervise.Cancel} and classified
      as a [timeout] reply, never a dropped connection;
    - {e crash isolation} — a request that raises is retried and then
      answered [crash] by {!Ermes_runtime.Supervise.attempt}; even a worker
      {e domain} death (the [kill-worker] inject) costs exactly one request
      and one pool slot, never the daemon;
    - {e graceful degradation} — the service steps down a ladder
      (full pool → reduced → sequential → metrics-only) as workers are lost
      or the crash budget is exhausted; [metrics] is always answered inline
      by the event loop, so the daemon stays observable at every rung;
    - {e warm continuity} — certified verdicts are replayed from a
      design-hash cache ({!Cache}) and per-client incremental sessions
      ({!Session}) survive across connections from the same client name.

    Shutdown: SIGTERM/SIGINT close the listeners, reject new work with
    [shutting-down], cancel in-flight deadlines, drain queued requests with
    [shutting-down] replies, join the workers, flush, and unlink the
    socket — the process then exits 0 so [at_exit] hooks (trace dumps) run. *)

type config = {
  socket : string;  (** unix socket path (created; unlinked on shutdown) *)
  tcp_port : int option;  (** also listen on 127.0.0.1:port *)
  queue_capacity : int;  (** admission queue bound *)
  workers : int;  (** worker domains (≥ 1) *)
  client_cap : int;  (** max in-flight requests per connection *)
  idle_timeout_s : float;  (** reap connections idle this long *)
  frame_deadline_s : float;
      (** answer [bad-request] and close a connection that has held a
          partial frame this long — a slow-loris client must not pin a
          connection slot until the idle reaper fires *)
  session_ttl_s : float;  (** reap incremental sessions idle this long *)
  session_cap : int;  (** max sessions per client name *)
  cache_capacity : int;  (** warm-cache entries *)
  max_attempts : int;  (** supervised attempts per request *)
  default_deadline_ms : int;  (** deadline when the request names none *)
  max_deadline_ms : int;  (** ceiling on client-requested deadlines *)
  crash_budget : int;
      (** cumulative crashed requests before the daemon circuit-breaks to
          metrics-only service *)
  rounds : int;  (** simulation horizon for batch [simulate] jobs *)
  io : Ermes_chaos.Chaos.Io.t;
      (** every socket read/write and time source of the daemon; the
          passthrough default is the bare syscalls, and the chaos layer
          injects EINTR storms and clock skew through it *)
}

val default_config : socket:string -> config
(** 64-deep queue, 2 workers, 8 in-flight per client, 300 s connection
    idle timeout, 10 s frame-read deadline, 900 s session TTL, 8
    sessions/client, 256 cache entries, 3 attempts, 30 s default / 120 s
    max deadline, crash budget 1000, 10_000 simulation rounds, passthrough
    I/O. *)

val run : ?stop:bool Atomic.t -> config -> (unit, string) result
(** Serve until SIGTERM/SIGINT. [Error] when the daemon cannot start
    (socket in use by a live daemon, bind failure, bad config); once
    serving it only returns via a clean shutdown. Enables the
    {!Ermes_obs.Obs} sink so [metrics] works without any tracing flag.

    With [stop] the caller owns the lifecycle instead of the signals: no
    SIGTERM/SIGINT handlers are installed and setting the atomic makes the
    loop shut down cleanly within its select tick — this is how an
    embedded daemon (tests, [ermes chaos]) runs in a spawned domain. *)
