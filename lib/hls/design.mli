(** Micro-architecture design points: HLS knobs, latency and area evaluation,
    knob sweep, and Pareto-frontier extraction.

    This is the stand-in for the commercial HLS tool of the paper's flow: for
    each process behavior it produces the set of Pareto-optimal
    implementations (latency in cycles, area in µm²) among which the ERMES
    methodology later selects (paper §5: "a set of Pareto-optimal
    µ-architectures that differ in terms of latency and area"). *)

type sharing =
  | Minimal  (** one unit per used class: maximal sharing, minimal area *)
  | Quarter  (** a quarter of the peak per-class demand *)
  | Half
  | Full  (** one unit per operation: no sharing, minimal latency *)

type knobs = {
  unroll : int;  (** loop unrolling factor applied to every loop *)
  pipelined : bool;  (** loop pipelining *)
  sharing : sharing;
  banking : int;
      (** memory banks for behaviors with [local_words > 0]: the [Mem] unit
          count becomes the port count (= banks) and the memory area follows
          {!Memory.area}. Ignored (forced to 1) when the behavior has no
          explicit local memory. *)
}

type point = {
  knobs : knobs;
  latency : int;  (** computation latency of the whole behavior, cycles *)
  area : float;  (** µm² *)
}

val allocation_for :
  ?banking:int -> Behavior.t -> unroll:int -> sharing -> Schedule.allocation
(** Units per class derived from the peak per-class demand over the unrolled
    loop bodies, scaled by the sharing level (always at least one unit per
    used class). For behaviors with an explicit local memory the [Mem] unit
    count is the port count [banking] (default 1) instead. *)

val evaluate : Behavior.t -> knobs -> point
(** Latency: each loop is unrolled, list-scheduled, and either pipelined
    (latency = depth + II·(iterations−1), II bounded below by both unit
    occupancy and the loop's recurrence) or iterated sequentially (one cycle
    of control overhead per iteration); loop latencies add up, one cycle
    between loops. Area: functional units + registers + FSM control + sharing
    multiplexers (see the implementation for the coefficients). *)

val sweep : ?unrolls:int list -> Behavior.t -> point list
(** All knob combinations: unroll factors capped at each behavior's maximal
    trip count, both pipelining settings, all four sharing levels, and — for
    behaviors with an explicit local memory — every banking alternative of
    {!Memory.sweep}. *)

val pareto : point list -> point list
(** The non-dominated subset (strictly better in latency or area, not worse
    in the other), sorted by increasing latency — so area strictly decreases
    along the list. Duplicate (latency, area) pairs are collapsed. *)

val pareto_frontier : ?unrolls:int list -> Behavior.t -> point list
(** [pareto (sweep b)]. *)
