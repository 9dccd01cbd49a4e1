(** Cycle-accurate discrete-event simulation of the blocking protocol.

    Executes the system exactly as the synthesized hardware would (paper §2):
    every process walks its cyclic FSM — gets in order, computation for the
    selected implementation's latency, puts in order — and a data transfer on
    a channel starts only when the producer has reached the corresponding
    [put] and the consumer the corresponding [get] (rendezvous); the transfer
    occupies both sides for the channel's latency.

    This simulator is intentionally {e independent} of the TMG analysis — no
    shared semantics code — so the test suite can check that the analytical
    cycle time of {!To_tmg}+[Howard] equals the measured steady-state rate,
    and that analytical deadlocks match simulated deadlocks (the lengthy
    repeated simulations the paper says ERMES makes unnecessary).

    Every run is guarded by a watchdog: instead of an unbounded horizon the
    simulation carries a finite cycle budget (by default derived from the
    system's total latency, see {!default_max_cycles}) and reports budget
    exhaustion as an explicit {!outcome-Timed_out} outcome, distinct from
    deadlock. Structural problems (no sink to monitor) are reported as
    [Error] instead of raising. *)

type direction = Waiting_get | Waiting_put

type blocked = {
  process : System.process;
  channel : System.channel;
  direction : direction;
}

type deadlock = { at_cycle : int; blocked : blocked list }
(** All processes are permanently stalled at I/O statements: no transfer can
    ever start again. *)

type timeout = {
  budget : int;  (** the cycle budget that was exhausted *)
  monitor_iterations : int;  (** iterations the monitor had completed *)
}
(** The watchdog fired: the event clock passed the cycle budget before the
    monitor finished its iterations and before any deadlock was detected —
    either the budget was too small for the system's transient, or the
    system is live-locked away from the monitor. *)

type outcome =
  | Completed  (** the monitor finished its [max_iterations] iterations *)
  | Deadlocked of deadlock
  | Timed_out of timeout

type profile = {
  blocked_on_get : int array;
      (** per process: cycles spent stalled waiting for data at a [get],
          summed over that process's input channels *)
  blocked_on_put : int array;
      (** per process: cycles stalled waiting at a [put] — back-pressure
          from the consumer (rendezvous) or a full buffer (FIFO) *)
  mean_occupancy : float array;
      (** per channel: time-average number of buffered items; always 0 for
          rendezvous channels *)
  peak_occupancy : int array;  (** per channel: maximum buffered items *)
}
(** Utilization profile of one run — the paper's motivating measurement that
    static analysis makes unnecessary for {e throughput}, but which remains
    the ground truth for where stall time actually accrues. Collected on
    every run; deterministic for a given system and hooks. *)

type run = {
  cycles : int;  (** simulated time at which the run stopped *)
  iterations : int array;  (** completed loop iterations, per process *)
  completions : int list array;
      (** per process, completion time of each iteration, oldest first *)
  outcome : outcome;
  profile : profile;
}

type hooks = {
  stalls : (System.channel * int * int) list;
      (** [(c, k, extra)]: the [k]-th (0-based) transfer on channel [c]
          takes [extra] more cycles — a transient channel-stall fault.
          Entries for the same transfer add up; for FIFO channels the
          stall applies to the enqueue side. The schedule is data, so a run
          knows when the last stall has passed. *)
  stuck : System.process list;
      (** Stuck processes never execute a statement: the operational face
          of a token-removal fault (their initial enabling token is gone). *)
}

val no_hooks : hooks
(** No stalls, no stuck processes — the unfaulted semantics. *)

val default_max_cycles : max_iterations:int -> System.t -> int
(** A generous but finite watchdog budget: every iteration of a live system
    completes within the sum of all process and channel latencies (the
    critical cycle's delay cannot exceed the total delay), so
    [(max_iterations + processes + 8) * (total_latency + processes + 1)]
    bounds any legitimate run, including its start-up transient. *)

val run :
  ?monitor:System.process ->
  ?max_iterations:int ->
  ?max_cycles:int ->
  ?hooks:hooks ->
  System.t ->
  (run, string) result
(** [run sys] simulates until the [monitor] process (default: the first sink)
    completes [max_iterations] iterations (default 64), the system deadlocks,
    or the watchdog budget [max_cycles] (default {!default_max_cycles}) is
    exhausted; it never stops early at a recurrence, so the profile covers
    the whole run. [Error] if the system has no sink and no [monitor] was
    given. *)

type measurement =
  | Period of Ermes_tmg.Ratio.t
      (** exact steady-state cycle time of the monitored process, proved by
          a recurrence of the whole simulation state *)
  | No_period
      (** the monitor completed [rounds] iterations and no state recurred —
          raise [rounds]; never a guessed period *)
  | Deadlock of deadlock
  | Timeout of timeout

val steady_cycle_time :
  ?rounds:int ->
  ?monitor:System.process ->
  ?max_cycles:int ->
  ?hooks:hooks ->
  System.t ->
  (measurement, string) result
(** Measured steady-state cycle time. After every event that completes an
    iteration of the monitor, the simulator records its whole state, times
    relative to now: every process's program counter, each channel's flags,
    credits and items, and the pending events in heap order. It records
    nothing while a scheduled stall is still ahead. A deterministic closed
    system whose state recurs is exactly periodic from then on
    ({!Ermes_tmg.Recurrence}), so the first repeated state ends the run and
    its period per monitor iteration is the answer, as
    {!Ermes_tmg.Firing.measured_cycle_time} does on the TMG. [rounds]
    (default 64) is a budget of monitor iterations, not a window: if no
    state recurs within it the answer is [No_period]. Counts
    [sim.recurrences] on {!Ermes_obs.Obs}. [Error] only for structural
    problems (no sink to monitor). *)

val pp_deadlock : System.t -> Format.formatter -> deadlock -> unit
val pp_timeout : Format.formatter -> timeout -> unit

val pp_profile : System.t -> Format.formatter -> run -> unit
(** Utilization table: per process, iterations completed and the fraction of
    simulated time blocked on gets and on puts; per FIFO channel, mean and
    peak buffer occupancy. *)
