(** Exhaustive statement-order search.

    The brute-force baseline the paper argues against ("there are simply too
    many possible ordering combinations to consider"): enumerate every
    combination of per-process get and put orders, analyze each, and report
    the best. Cost is ∏ₚ |in(p)|!·|out(p)|! analyses, so this is only usable
    on small systems — which is exactly its role: ground truth for the
    ordering algorithm in tests and the optimality-gap ablation bench. *)

module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

type result = {
  best_cycle_time : Ratio.t;
  best_system : System.t;  (** a copy carrying one optimal order combination *)
  evaluated : int;  (** total order combinations analyzed *)
  deadlocked : int;  (** how many of them deadlock *)
}

type slice_outcome = {
  slice_best : (Ratio.t * (int list * int list) list) option;
      (** best cycle time in the slice and the winning per-process
          (get order, put order) signature; [None] if everything in the
          slice deadlocked *)
  slice_evaluated : int;
  slice_deadlocked : int;
}
(** The result of one lexicographic slice of the enumeration — everything a
    checkpoint journal needs to skip the slice on resume. *)

val search :
  ?limit:int ->
  ?jobs:int ->
  ?checkpoint:(slice:int -> slice_outcome -> unit) ->
  ?resume:(slice:int -> slice_outcome option) ->
  System.t ->
  result option
(** [search sys] tries every order combination (the input system is not
    modified). [None] if every combination deadlocks. Each combination is
    probed through an incremental analysis session rather than a fresh TMG
    build.
    @param limit refuse (raise [Invalid_argument]) beyond this many
    combinations (default 100_000).
    @param jobs fan the enumeration over up to [jobs] domains (default 1)
    through {!Ermes_parallel.Parallel.waves}, one System copy and one
    incremental session per worker.

    The enumeration is split into lexicographic slices — expanded prefixes
    of the per-process choices, at least 64 of them, a function of the
    system alone — that run in waves of 256. Slice results merge in slice
    order with strict improvement, reproducing the sequential first-found
    minimum, so the result (optimum, winning orders, evaluation and
    deadlock counts) is bit-identical for every [jobs] value.

    Every slice has a stable index. [checkpoint] fires once per slice in
    strict slice order, after each wave — including for slices [resume]
    answered, so a resumed journal ends up identical to an uninterrupted
    one. [resume] is called sequentially, once per slice, before any domain
    spawns. *)
