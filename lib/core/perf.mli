(** System-level performance analysis (paper §3).

    Wraps TMG construction and Howard's algorithm into system-level terms:
    the analysis returns the cycle time (reciprocal of the data-processing
    throughput), and the critical cycle expressed as the processes and
    channels it threads — the objects the ILP-based optimizations and the
    channel reordering act on. *)

module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

type analysis = {
  cycle_time : Ratio.t;
  critical_processes : System.process list;
      (** processes whose computation transition lies on the critical cycle *)
  critical_channels : System.channel list;
      (** channels whose transition lies on the critical cycle *)
  critical_cycle : string list;
      (** the full critical cycle as transition names, in cycle order *)
  critical_delay : int;
      (** total transition delay along the critical cycle *)
  critical_tokens : int;
      (** tokens on the critical cycle; [cycle_time] =
          [critical_delay / critical_tokens] *)
}

type deadlock = {
  dead_processes : System.process list;
  dead_channels : System.channel list;
  dead_cycle : string list;  (** the token-free cycle, as transition names *)
}

type failure =
  | Deadlock of deadlock
  | No_cycle  (** degenerate system with an acyclic TMG *)

val analyze : System.t -> (analysis, failure) result
(** [analyze sys] under the system's current statement orders and selected
    implementations. *)

val of_howard :
  Ermes_slm.To_tmg.mapping ->
  (Ermes_tmg.Csr.result, Ermes_tmg.Csr.error) result ->
  (analysis, failure) result
(** Translate a raw Howard outcome into system-level terms using the mapping
    the TMG was built with. [analyze] is
    [of_howard m (Csr.cycle_time m.tmg)]; {!Incremental} sessions reuse the
    translation with a warm solver. *)

val cycle_time_exn : System.t -> Ratio.t
(** @raise Failure on deadlock (with a diagnostic message). For tests and
    quick scripts. *)

val throughput : analysis -> Ratio.t

type slack = Bounded of int | Unbounded

val latency_slack : System.t -> (System.process * slack) list
(** Per-process sensitivity: how many extra cycles each process's
    computation latency can absorb before the system's cycle time increases.
    Processes on the critical cycle have slack 0; a process on no cycle at
    all (impossible in a valid system, where every process chain is a cycle)
    would be [Unbounded]. Computed exactly from the reduced costs
    [den·delay − num·tokens] at the current cycle time: the slack of process
    [p] is −(max over cycles through p of the cycle's reduced cost)/den,
    found with a longest-walk relaxation (no positive cycles exist at the
    exact cycle time, so the relaxation converges).
    @raise Failure on deadlocked or acyclic systems. *)

val channel_slack : System.t -> (System.channel * slack) list
(** The same sensitivity for channel latencies: extra transfer cycles each
    channel can absorb before the cycle time degrades. For a FIFO channel
    the slack applies to its enqueue transfer (the consumer-side read is a
    fixed single cycle).
    @raise Failure on deadlocked or acyclic systems. *)

val pp_slack : Format.formatter -> slack -> unit

val pp_analysis : System.t -> Format.formatter -> analysis -> unit
val pp_failure : System.t -> Format.formatter -> failure -> unit
