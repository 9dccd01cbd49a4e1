(** A tiny stdlib-only domain pool (OCaml 5 [Domain] + [Atomic]).

    Fan independent tasks over [jobs] domains. Tasks are claimed from a
    shared atomic counter; every result is written to the slot of its input
    index, so {e result order is deterministic} — identical for any [jobs]
    value and any scheduling — and a parallel run returns bit-for-bit what
    the sequential run would. Only scheduling (hence wall-clock) varies.

    Concurrency contract: tasks must not share mutable state. A worker may
    read data that no domain mutates while the tasks run; anything it
    mutates is its own — built by {!waves}'s [init] in the worker domain,
    or given to each task before the call.

    [jobs] defaults to [ERMES_JOBS] when set (the CLI's [--jobs] flag
    overrides it), else 1: parallelism is opt-in, sequential semantics are
    the reference. Fan-out is clamped to the task count and to the host's
    cores ({!available}); [jobs <= 1] runs inline with no domain spawned.

    Degradation ladder: a refused [Domain.spawn] leaves fewer workers, and
    the slots a worker domain left unfilled when it died run on the calling
    domain after the join — the result is the same either way. The
    [parallel.lost_workers] counter records each lost worker. *)

val available : unit -> int
(** [Domain.recommended_domain_count ()] — the host's useful parallelism. *)

val default_jobs : unit -> int
(** The [ERMES_JOBS] environment variable if set to a positive integer,
    else 1. *)

exception Worker_failure of int * exn
(** A task raised: carries the lowest failing input index and its exception.
    Raised from the calling domain after all workers joined, {e with the
    worker's own raw backtrace re-attached}
    ([Printexc.raise_with_backtrace]): when backtrace recording is on,
    [Printexc.get_raw_backtrace] in the handler shows the frames of the
    original raise inside the task, not just the re-raise site. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs] domains. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] with [f] fanned out. *)

val waves :
  ?jobs:int ->
  size:int ->
  init:(unit -> 's) ->
  int ->
  ('s -> int -> 'a) ->
  (int -> 'a -> unit) ->
  unit
(** [waves ~jobs ~size ~init n run emit] computes [run st i] for every
    [i] in [0 .. n-1] and hands each result to [emit i], in index order, on
    the calling domain — the one campaign loop of the checkpointed engines.

    Units run in consecutive waves of [size] indices (the last may be
    shorter). Inside a wave, each worker domain builds one state [st] with
    [init] on its first claimed index, at most once per wave, and claims
    indices from a shared counter. [emit] sees a wave's results before the
    next wave starts, so a hook that persists them loses at most one wave
    of work to a kill. [emit]'s calls — and hence anything it writes — are
    identical for every [jobs]; [run]'s result must depend on its index
    alone, not on which state computed it.

    A raising unit surfaces, after its wave joins and before that wave's
    [emit]s, as [Worker_failure] carrying the lowest failing index. *)
