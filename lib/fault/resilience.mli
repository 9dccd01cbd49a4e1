(** Resilience report: how much latency degradation a design absorbs.

    For every process and channel, the report gives the {e latency slack} —
    the number of extra cycles the component can slow down before the
    system's cycle time degrades (equivalently, before the critical cycle
    moves onto it). Slack 0 means the component is on the critical cycle
    already. The slacks come from the exact reduced-cost computation in
    {!Ermes_core.Perf}; optionally each one is {e verified} by probing: a
    {!Fault.Latency_jitter} / {!Fault.Process_slowdown} of exactly the slack
    must keep the cycle time, and one more cycle must degrade it (two extra
    Howard runs per component).

    Components whose slack is at or below a caller-chosen threshold are
    classified {e fragile} — a plausible silicon or load variation moves the
    bottleneck — and the rest {e robust}. *)

module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf

type entry = {
  slack : Perf.slack;
  verified : bool option;
      (** [Some true] — probing confirmed the slack is tight; [Some false] —
          probing contradicted it (an analysis bug); [None] — not probed *)
}

type t = {
  cycle_time : Ratio.t;
  processes : (System.process * entry) list;
  channels : (System.channel * entry) list;
}

val analyze : ?verify:bool -> System.t -> (t, string) result
(** [analyze sys] builds the report; [Error] on deadlocked or degenerate
    systems. [verify] (default [false]) probes every bounded slack. *)

val fragile : System.t -> threshold:int -> t -> (string * entry) list
(** Named fragile components (processes and channels), sorted by slack,
    tightest first. *)

val pp : System.t -> threshold:int -> Format.formatter -> t -> unit
