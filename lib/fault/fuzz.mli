(** Crash-isolating differential fuzzer.

    Generates seeded random systems ({!Ermes_synth.Generate}), dresses them
    up (FIFO-izing channels, permuting statement orders — which may
    legitimately deadlock them) and random fault scenarios, runs every case
    through {!Differential.run_case}, and catches both oracle disagreements
    and uncaught exceptions. A failing case is {e shrunk} — faults dropped
    greedily, then magnitudes halved, while the failure reproduces — and
    written out as a [.soc] repro file whose header records the mismatch,
    the dynamic faults and a replay command line.

    Everything is a pure function of [config.seed]: re-running with the same
    seed replays the same cases bit-for-bit — including under parallel
    execution. Case generation draws from the single seeded Prng
    sequentially; the differential runs and shrinks (pure per case) fan out
    over [jobs] domains through {!Ermes_parallel.Parallel.waves};
    classification, repro writing and logging replay sequentially in case
    order. The summary, every repro file and every log line are identical
    for any [jobs]. *)

module System = Ermes_slm.System

type config = {
  seed : int;
  cases : int;
  max_processes : int;  (** per generated system, ≥ 4 *)
  rounds : int;  (** simulator/firing horizon per case *)
  rtl : bool;  (** co-simulate the RTL control skeleton as the ninth oracle *)
  repro_dir : string option;  (** where repro files land; [None] disables *)
}

val default : config
(** seed 1, 100 cases, ≤ 12 processes, 96 rounds, RTL oracle on, repros in
    the current directory. *)

type failure = {
  case : int;  (** 0-based case index (deterministic per seed) *)
  scenario : Fault.scenario;  (** shrunk to a minimal failing scenario *)
  mismatches : string list;  (** oracle disagreements, or the exception *)
  system : System.t;  (** the base (unfaulted) generated system *)
  repro_file : string option;
}

type summary = {
  cases_run : int;
  live : int;  (** cases whose oracles agreed on a cycle time *)
  dead : int;  (** cases whose oracles agreed on deadlock *)
  faults_injected : int;
  failures : failure list;
}

type case_outcome =
  | Case_agreed of Differential.verdict option
      (** the oracles agreed; [None] when neither produced a verdict *)
  | Case_failed of { scenario : Fault.scenario; mismatches : string list }
      (** the {e shrunk} scenario and what the oracles disagreed on *)

val run :
  ?log:(string -> unit) ->
  ?checkpoint:(case:int -> System.t -> case_outcome -> unit) ->
  ?resume:(case:int -> System.t -> case_outcome option) ->
  ?jobs:int ->
  config ->
  summary
(** [run config] executes the campaign. [log] receives one progress line per
    failure and per 25 cases. [jobs] fans the per-case differential runs
    over domains (default: [ERMES_JOBS], else sequential) — the outcome is
    bit-identical for any value.

    [checkpoint] is invoked once per case, in case order, from the
    sequential classify phase — safe to write a journal from. Cases execute
    in waves of 32 with classification after each wave, so checkpoints
    persist incrementally: a campaign killed mid-flight has journalled all
    but at most one wave of its completed work. [resume] is
    consulted {e in the worker domains} before a case is executed: returning
    [Some outcome] (e.g. decoded from a journal) skips the expensive
    differential run and shrink for that case while the summary, repro files
    and log lines stay byte-identical to an uninterrupted run. It must
    therefore be safe to call concurrently from multiple domains (a
    read-only lookup table is). Generation always runs — it is what makes
    resumed outcomes meaningful — so [faults_injected] is exact either
    way. *)

val gen_case : Ermes_synth.Prng.t -> max_processes:int -> System.t * Fault.scenario
(** One random case: the generated (possibly order-permuted, FIFO-ized)
    system and a fault scenario for it. Exposed for the test suite. *)

val write_repro :
  string ->
  seed:int ->
  case:int ->
  System.t ->
  Fault.scenario ->
  string list ->
  string
(** [write_repro dir ~seed ~case sys scenario mismatches] writes the [.soc]
    repro for a failing case into [dir] and returns its path: the faulted
    system with a comment header recording the mismatches, the dynamic
    faults (structural ones are baked into the printed system) and a
    replay command line. Exposed for the test suite. *)
