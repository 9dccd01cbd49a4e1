(** A tiny stdlib-only domain pool (OCaml 5 [Domain] + [Atomic]).

    Fan a list of independent tasks over [jobs] domains. Tasks are claimed
    from a shared atomic counter; every result is written to the slot of its
    input index, so {e result order is deterministic} — identical for any
    [jobs] value and any scheduling — and a parallel run returns bit-for-bit
    what the sequential run would. Only scheduling (hence wall-clock) varies.

    Concurrency contract: tasks must not share mutable state. ERMES callers
    give each task its own [System.copy] (made sequentially, before
    spawning — [Hashtbl]-backed structures are not safe to mutate, or even
    resize-on-read, concurrently).

    [jobs] defaults to [ERMES_JOBS] when set (the CLI's [--jobs] flag
    overrides it), else 1: parallelism is opt-in, sequential semantics are
    the reference.

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
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs] domains
    (clamped to the task count; [jobs <= 1] runs inline with no domain
    spawned). *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] with [f] fanned out. *)
