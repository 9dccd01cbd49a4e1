(** RTL control skeletons for a system (the back end of the flow).

    Generates, from a {!Ermes_slm.System.t}, the synchronous control logic the
    paper's commercial flow would emit: one FSM per process — exactly the
    cyclic structure of Fig. 2(b): one state per [get]/[put] with a wait
    self-loop, a computation state with a latency down-counter — plus the
    channel logic for all four channel kinds (rendezvous: request/acknowledge
    with a multi-cycle busy counter; FIFO and multi-rate: enqueue/dequeue
    ports with weighted item and credit counters; valid/ready handshake: a
    rendezvous whose hold down-counter keeps the channel occupied while the
    consumer holds data before acking). Datapaths are abstract in the system
    model, so the RTL is the control skeleton: every handshake wire, every
    stall, every state — no data.

    The handshake timing is bit-exact with the discrete-event simulator
    ({!Ermes_slm.Sim}): a rendezvous that starts in cycle [t] with latency
    [L] lets both endpoint FSMs execute their next statement in cycle
    [t + L]; computation of latency [L] occupies exactly [L] cycles; a
    positive handshake hold keeps the channel busy until [t + L + hold];
    buffered dequeues take {!Ermes_slm.System.get_side_latency} cycles. Two
    degeneracies are pinned by construction (and by the test suite):
    [Multi_rate {produce = 1; consume = 1; depth}] emits bit-identical IR to
    [Fifo depth], and [Handshake {hold = 0}] emits bit-identical IR to
    [Rendezvous]. The interpreted RTL is the fuzzer's ninth differential
    oracle ({!Ermes_fault.Differential}): an independent semantics of the
    same system, cross-checked against the analyses on every fuzz case. *)

module System = Ermes_slm.System

type t = {
  design : Ir.design;
  state_of : Ir.signal array;  (** per process: the FSM state register *)
  iterations_of : Ir.signal array;
      (** per process: completed-iteration counter (30 bits, wrapping) *)
  fire_of : Ir.signal array;
      (** per channel: the completion pulse of the consumer-side transfer *)
}

val build : System.t -> t
(** @raise Invalid_argument on systems rejected by {!System.validate}, or
    whose process latency, channel latency, FIFO/multi-rate depth or
    handshake hold exceeds 2{^30} (the RTL counter limit) — the message
    names the offending process or channel and its kind. *)

type measurement =
  | Rtl_period of Ermes_tmg.Ratio.t
      (** exact steady-state period of the monitor's completion times, per
          monitor iteration, proved by a recurrence of the register state *)
  | Rtl_no_period
      (** the monitor completed [rounds] iterations and no register state
          recurred — raise [rounds]; never a guessed period *)
  | Rtl_exhausted of { cycles : int; iterations : int }
      (** the horizon was exhausted (or the design reached a register-level
          fixed point) after [cycles] cycles with only [iterations] monitor
          completions — what an RTL-level deadlock looks like *)

val cosim :
  ?rounds:int -> ?max_cycles:int -> ?monitor:System.process -> System.t -> measurement
(** [cosim sys] interprets the generated RTL and, at each completed
    iteration of [monitor] (default: the first sink), records the register
    vector minus the free-running [it_*] iteration counters. The design is
    closed, so that vector is its whole state: the first repeated vector
    proves the period ({!Ermes_tmg.Recurrence}) and ends the run. [rounds]
    (default 48) is a budget of monitor iterations, not a window: with no
    recurrence within it the answer is [Rtl_no_period]. [max_cycles]
    defaults to {!Ermes_slm.Sim.default_max_cycles} for the same [rounds]
    — the budget the discrete-event simulator would get. A step that
    changes no register short-circuits to [Rtl_exhausted]: a settled step
    is a permanent deadlock. Counts [rtl.cosim.runs],
    [rtl.cosim.recurrences] and [rtl.interp.cycles] on {!Ermes_obs.Obs}.
    @raise Invalid_argument as {!build}, or when the system has no sink and
    no [monitor] was given. *)

val measured_cycle_time :
  ?rounds:int -> ?max_cycles:int -> System.t -> Ermes_tmg.Ratio.t option
(** [Some p] iff {!cosim} proves a steady period for the first sink within
    [rounds] iterations (default 48), as {!Ermes_slm.Sim.steady_cycle_time}
    does. [None] when the cycle budget ([max_cycles], default 200,000) is
    exhausted first — which is what an RTL-level deadlock looks like — or
    when no state recurs within [rounds]. *)
