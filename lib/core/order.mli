(** The channel-ordering algorithm (paper §4, Algorithm 1).

    Reorders the [put] and [get] statements of every process to maximize
    system throughput while avoiding deadlock, in O(E log E):

    - {e Forward labeling} — a queue-driven traversal from the sources; when a
      process is dequeued, each of its outgoing channels (visited in the
      current put order) has its {e head} labeled with a weight — the maximum
      incoming head weight plus the total latency of the process's outgoing
      channels plus the process latency — and a global timestamp. A process
      is enqueued once its last incoming channel is labeled.
    - {e Backward labeling} — symmetric, from the sinks, labeling channel
      {e tails}; a process's incoming channels are visited in increasing
      order of the forward timestamps on their heads.
    - {e Final ordering} — each process's gets are sorted by ascending head
      weight and its puts by descending tail weight, ties broken by ascending
      timestamp (the tie-break that rules out deadlocks in symmetric
      structures).

    Intuition: a put that starts a long downstream path should happen early;
    a get that ends a short upstream path should be served early.

    {b Feedback loops.} The queue-driven traversal terminates only on acyclic
    graphs, so channels classified as DFS back arcs (from the sources) do not
    gate the enqueueing in either direction; they still receive labels when
    their endpoint process is dequeued and participate normally in the final
    sort. With every feedback loop broken by a [Puts_first] process (see
    {!Ermes_slm.System.phase_order}) the resulting orders remain
    deadlock-free in all our tests. *)

module System = Ermes_slm.System

type orders = (System.channel list * System.channel list) list
(** Every process's (get order, put order), in process order. *)

val snapshot : System.t -> orders
(** The system's current statement orders. *)

val restore : System.t -> orders -> unit
(** Install a {!snapshot} taken on this system or a copy of it. *)

type labels = {
  head_weight : int array;  (** per channel *)
  head_timestamp : int array;
  tail_weight : int array;
  tail_timestamp : int array;
  back_channel : bool array;  (** channels classified as DFS back arcs *)
}

val forward_labels : System.t -> labels
(** Forward labeling only ([tail_*] arrays are zeroed) — exposed for tests
    against the paper's worked example. *)

val compute_labels : System.t -> labels
(** Forward then backward labeling, without touching the system. *)

val apply : System.t -> labels
(** The full algorithm: computes labels and installs the final statement
    orders into the system. Returns the labels for inspection.

    {b Unchecked}: on systems with feedback loops the back-arc adaptation is
    a heuristic and the resulting order can occasionally deadlock or be
    slower than the incumbent (on DAG-structured systems no deadlock has
    ever been observed, matching the paper's claim). Production flows use
    {!apply_safe}. *)

val apply_constrained : System.t -> labels
(** The dependence-constrained variant: computes Algorithm 1's labels, then
    emits the channels as a greedy linear extension of the channel
    dependence graph prioritized by (head weight − tail weight), forward
    timestamp as tie-break, and sorts every statement order by that
    linearization. {e Always} deadlock-free (any linear extension is), and
    reproduces the paper's optimal orders on the motivating example.
    @raise Invalid_argument when no deadlock-free order exists. *)

type safe_outcome =
  | Applied of labels  (** new orders installed; cycle time ≤ incumbent *)
  | Kept_incumbent of [ `Would_deadlock | `Would_regress ]

val apply_safe : ?session:Incremental.t -> System.t -> safe_outcome
(** Runs both {!apply} and {!apply_constrained}, verifies each
    incrementally, and installs the fastest live result — unless the
    incumbent order is faster still, in which case it is restored. This
    makes the optimization monotone. All three verification probes go
    through one {!Incremental} session (order changes are chain rewires on
    a single TMG, with warm-started Howard runs).
    @param session reuse a caller-held session on [sys] instead of creating
    one ([Invalid_argument] if it is bound to a different system).
    @raise Failure if the {e incumbent} orders already deadlock (order the
    system with {!conservative} first). *)

val conservative : System.t -> unit
(** The baseline ordering the paper's input implementations use: a
    {e provably} deadlock-free order, blind to latencies — so it "may
    introduce unnecessary serialization of processes that could run in
    parallel", the gap the optimizing algorithm closes. Construction: build
    the first-iteration channel dependence graph (each process's first-phase
    channels precede its second-phase channels), topologically linearize it,
    and sort every statement order by the linearization; then every wait
    dependence points forward in the linearization, so no cyclic wait
    exists. @raise Invalid_argument when no deadlock-free order exists (a
    feedback loop without a [Puts_first] process). *)

type swap = {
  process : System.process;
  side : [ `Gets | `Puts ];  (** which statement order the swap permutes *)
  first : System.channel;  (** the earlier of the two channels before the swap *)
  second : System.channel;
}

val sweep :
  Ermes_slm.To_tmg.mapping ->
  Ermes_tmg.Csr.solver ->
  System.t ->
  base:Ermes_tmg.Csr.result ->
  budget:int ->
  keep:(swap -> Ermes_tmg.Csr.result -> bool) ->
  int * Ermes_tmg.Csr.result
(** One pass over the adjacent-swap neighbourhood of the current orders
    (paper §4's moves), on the net [mapping] built from [sys] and a warm
    [solver] on it whose last answer is [base]. Processes are visited in
    ascending order, each one's gets before its puts, positions ascending.
    Each swap is applied to [sys] and rethreaded ({!Ermes_slm.To_tmg.rethread}),
    and solved only when it changes the ends or tokens of a place of
    [base]'s witness cycle: otherwise that cycle survives with the base
    ratio, so the swap cannot lower the cycle time. A process with no chain
    place on the witness is skipped without a rethread. On a strict
    improvement, [keep swap result] decides: [true] keeps the swap, and
    [result] becomes the base (ratio and witness) of the rest of the sweep;
    [false] restores the order, as every other swap does. The sweep stops
    trying once [budget] swaps were tried. Returns the swaps tried, solved
    or skipped, and the final base. *)

val local_search : ?max_evaluations:int -> System.t -> int
(** Beyond the paper: an anytime first-improvement local search over
    statement orders. Repeats {!sweep}, keeping every strict improvement,
    until a sweep keeps nothing or [max_evaluations] swaps (default 10,000)
    have been tried. Monotone by construction; typically run after
    {!apply_safe} to close its remaining optimality gap (the ablation bench
    quantifies this). Every swap counts as an analysis, solved or skipped,
    so the count and the resulting orders are those of solving every swap.
    Returns the number of analyses.
    @raise Failure if the incumbent orders deadlock. *)

val conservative_random : seed:int -> System.t -> unit
(** A {e random} deadlock-free order: sorts every statement order by a
    uniformly random linear extension of the channel dependence graph. This
    samples the space of plausible designer orders — live but latency-blind —
    and is the baseline for measuring how much serialization the optimizing
    algorithm removes (a fully random order deadlocks almost surely on
    realistic topologies). Deterministic in [seed].
    @raise Invalid_argument when no deadlock-free order exists. *)
