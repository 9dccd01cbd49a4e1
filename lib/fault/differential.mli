(** Differential checking of the analysis/simulation stack.

    One faulted system, many independent oracles: Commoner's liveness test,
    Howard's policy iteration, Lawler's binary search, Karp's cycle mean (on
    a unit-token copy of the marking), the untimed token game, the max-plus
    earliest-firing schedule, the discrete-event simulator, and the
    interpreted RTL control skeleton ({!Ermes_rtl.Soc_rtl}). They compute
    the same two facts — does the system deadlock, and if not at what cycle
    time does it settle — by unrelated algorithms, so any disagreement is a
    bug in one of them (or in the fault machinery). The fuzz driver
    ({!Fuzz}) feeds this checker random systems and scenarios. *)

module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

type verdict =
  | Live of Ratio.t  (** agreed cycle time *)
  | Dead  (** agreed deadlock *)

type report = {
  verdict : verdict option;
      (** the consensus, from Howard's result; [None] when the case is
          broken before any oracle runs (fault application violated
          well-formedness) *)
  mismatches : string list;
      (** one human-readable line per disagreement; empty = all oracles
          agree *)
}

val run_case : ?rounds:int -> ?rtl:bool -> System.t -> Fault.scenario -> report
(** [run_case sys scenario] applies the scenario (structural faults rebuild
    the system, dynamic faults go through simulator hooks and TMG marking
    edits) and cross-checks every oracle. [rounds] (default 96) is the
    number of monitored iterations the simulator and the firing schedule
    use; it is escalated automatically before a missing steady-state period
    is reported as a mismatch. Transient stalls extend the simulator's
    watchdog budget by {!Fault.stall_budget} so they cannot be misread as
    livelock.

    [rtl] (default true) additionally co-simulates the generated RTL
    control skeleton of the faulted design and diffs its steady period (or
    horizon exhaustion) against the verdict. Scenarios containing
    [Token_removal] skip the RTL oracle: the removed initial token has no
    counterpart in the generated FSMs. Transient [Channel_stall]s are
    invisible to the RTL but cannot change the steady state it is compared
    on. *)

val monitor_repetition : System.t -> int
(** q(monitor): how many iterations the monitor (the first sink) completes
    per TMG period — 1 on unit-rate systems, and when the system has no
    sink or no repetition vector. The simulator's and the RTL interpreter's
    periods are per monitor iteration; multiplied by this factor, each is
    the TMG cycle time. *)

val agreed : report -> bool
(** No mismatches. *)
