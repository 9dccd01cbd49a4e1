(** Incremental performance analysis sessions.

    A session binds one {!System.t} to one long-lived TMG + Howard solver and
    makes repeated throughput probes cheap: instead of rebuilding the net and
    solving from a cold start (what {!Perf.analyze} does), each {!analyze}
    {e diffs} the system against a cached shadow of its mutable state and
    applies the cheapest sufficient TMG edit —

    - a micro-architecture {e selection} change becomes one transition-delay
      write ({!Ermes_tmg.Tmg.set_delay});
    - a statement {e order} change rewires that process's chain places in
      place ({!Ermes_slm.To_tmg.rethread});
    - a FIFO {e depth} change ([Fifo d → Fifo d']) becomes one token write on
      the channel's credit place ({!Ermes_tmg.Tmg.set_tokens});
    - a [Rendezvous ↔ Fifo] {e kind} change alters the transition set and
      falls back to a full rebuild —

    then re-runs Howard warm-started from the previous converged policy
    ({!Ermes_tmg.Csr.solve}). Results are equivalent to a fresh
    [Perf.analyze]: identical cycle time (it is exact in both paths, thanks
    to certification), identical deadlock verdicts and dead cycles, and a
    critical cycle that is genuinely critical — though possibly a different
    representative when several cycles tie.

    Callers mutate the System freely between analyses; there is no
    notification protocol. The session assumes it is the only writer of the
    {e TMG} (the System remains shared); sessions are not thread-safe — give
    each domain its own [System.copy] and session. *)

module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

type t

val create : System.t -> t
(** Builds the TMG and solver once. Cost: one [To_tmg.build] (no solve). *)

val system : t -> System.t

val analyze : t -> (Perf.analysis, Perf.failure) result
(** Sync with the system's current state, then solve warm. *)

type certified = {
  outcome : (Perf.analysis, Perf.failure) result;
  certificate : Ermes_verify.Verify.t;
      (** the proof object the warm solve produced, in raw TMG terms *)
  checked : (unit, Ermes_verify.Verify.violation) result;
      (** verdict of the independent checker on [certificate] *)
}

val analyze_certified : t -> certified
(** Like {!analyze}, but every verdict — live cycle time, deadlock, or
    acyclic — carries a certificate that has been run through
    {!Ermes_verify.Verify.check_csr}. Warm starts, cached policies and
    incremental edits make no difference to the proof obligations: the
    certificate is checked against a fresh freeze of the current net.
    Costs one extra freeze and O(E) pass over the net per call; the plain
    {!analyze} stays available for tight probe loops. On a fresh session
    ({!create} then [analyze_certified]) this is the whole one-shot
    certified analysis: one build, two freezes, one cold solve. *)

val analyze_exn : t -> Perf.analysis
(** @raise Failure on deadlock or an acyclic net. *)

val cycle_time_opt : t -> Ratio.t option
(** [None] on deadlock or an acyclic net — the shape order-search probes
    want. *)

type probe =
  | Slow_process of System.process * int  (** latency delta, clamped at 0 *)
  | Jitter_channel of System.channel * int  (** latency delta, clamped at 1 *)

val probe : t -> probe list -> (Perf.analysis, Perf.failure) result
(** [probe sess probes] analyzes the system as if the given transient latency
    deltas were applied, then restores the net. Deltas follow
    [Fault.apply]'s accumulate-then-clamp semantics, so
    [probe sess [Slow_process (p, d)]] equals
    [Perf.analyze (Fault.apply sys [Process_slowdown {process = p; delta = d}])]
    without constructing the faulted copy. *)

type stats = {
  mutable analyses : int;  (** solver runs (including probes) *)
  mutable probes : int;  (** transient {!probe} solves *)
  mutable delay_edits : int;  (** selection changes absorbed as delay writes *)
  mutable rethreads : int;  (** order changes absorbed as chain rewires *)
  mutable marking_edits : int;  (** FIFO depth changes absorbed as token writes *)
  mutable rebuilds : int;  (** [Rendezvous ↔ Fifo] changes: full TMG rebuilds *)
}

val stats : t -> stats

val mapping : t -> Ermes_slm.To_tmg.mapping
(** The live mapping (replaced on rebuild) — for tests and diagnostics. *)
