(** The analysis core: exact cycle-time analysis of timed marked graphs
    (paper §3) over a flat CSR (compressed sparse row) freeze of the net.

    The cycle time of a TMG is the reciprocal of the minimum cycle mean
    (Definition 3): equivalently, the {e maximum cycle ratio} over all
    directed cycles [C] of [delay(C) / tokens(C)]. Its reciprocal is the
    steady-state throughput. A cycle attaining the maximum is a {e critical
    cycle}.

    {!Tmg.t} is a pointer-rich labelled multigraph: records, closures and
    per-vertex arc {e lists}. Every hot solver loop over it would chase
    pointers and allocate. This module freezes a net into unboxed
    [int array]s — transitions and places keep their dense ids
    ({!Tmg.transition} and {!Tmg.place} already {e are} dense ints, so the
    index mapping between the two representations is the identity) — and
    runs the solvers as allocation-free loops over those arrays: Howard's
    policy iteration (the paper's choice, Cochet-Terrasson et al., 1998),
    Karp's and Lawler's algorithms (the cross-checks from the experimental
    study the paper cites, Dasdan, Irani, Gupta), liveness/topological
    ranks and Tarjan SCC.

    {2 Index-mapping contract}

    [of_tmg] and [to_tmg] are O(V+E) and preserve ids, names, delays, tokens
    and endpoints exactly: transition [v] of the net is row [v] of the CSR
    arrays, place [p] is column [p]. Consumers that hold {!Tmg.place} /
    {!Tmg.transition} handles — {!Ermes_slm.To_tmg.mapping}, incremental
    sessions, certificates — therefore keep working unchanged against CSR
    results: a witness cycle returned here is a plain [Tmg.place list] whose
    ids are valid in the source net.

    {2 Equivalence contract}

    Every solver answers with three things, and only these are contractual:

    - the {e exact} maximum cycle ratio as a {!Ratio.t}. Howard runs per
      strongly connected component with floating-point values; the
      candidate p/q of its final policy is then certified by searching for
      a cycle of positive reduced cost [q*delay - p*tokens] (integer
      Bellman-Ford with cycle extraction). Any cycle found has a strictly
      larger ratio and replaces the candidate, so the result is exact
      regardless of floating-point behaviour, and the procedure terminates
      because cycle ratios form a finite set. Lawler certifies its binary
      search's best witness the same way; Karp's dynamic program is exact
      in integers;
    - the verdict: {!Deadlock} exactly when a token-free cycle exists (the
      same witness {!Liveness} reports), {!No_cycle} exactly when the net is
      acyclic;
    - a checkable certificate: a witness cycle attaining p/q and integer
      potentials proving that no cycle exceeds it, which
      [Ermes_verify.Verify.check_csr] validates against a fresh {!of_tmg}
      without any solver code.

    Which of several equally critical cycles is reported, and the iteration
    counts, may depend on warm starts and rewiring history; the ratio and
    the verdict never do. The test suite holds the solvers to each other
    and to independent references: Johnson enumeration (the test suite's [Cycles]), the
    max-plus schedule ({!Firing}), the token game and the simulator. *)

type t = {
  n : int;  (** transition count *)
  m : int;  (** place count *)
  delay : int array;  (** per transition: firing delay *)
  weight : int array;
      (** per place: cached [delay.(dst.(p))] — the arc weight used by every
          cycle-ratio solver (each cycle transition counted once) *)
  tokens : int array;  (** per place: initial marking *)
  src : int array;  (** per place: producer transition *)
  dst : int array;  (** per place: consumer transition *)
  out_row : int array;
      (** length [n+1]: out-places of transition [v] are
          [out_adj.(out_row.(v)) .. out_adj.(out_row.(v+1) - 1)] *)
  out_adj : int array;  (** place ids, ascending within each row *)
  in_row : int array;  (** length [n+1]: same, for in-places *)
  in_adj : int array;  (** place ids, ascending within each row *)
  tname : string array;  (** per transition *)
  pname : string array;  (** per place *)
}

val of_tmg : Tmg.t -> t
(** O(V+E) freeze. Ids are preserved (identity mapping). *)

val to_tmg : t -> Tmg.t
(** O(V+E) thaw: rebuilds a net with identical ids, names, delays, endpoints
    and marking. [to_tmg (of_tmg tmg)] is indistinguishable from [tmg]
    through every {!Tmg} accessor. *)

type components = {
  comp : int array;
      (** component id per transition, numbered in reverse topological order
          exactly like the classic Tarjan on a freshly built net *)
  comp_count : int;
}

val strongly_connected : t -> components
(** Iterative Tarjan over the CSR adjacency: explicit int-array stacks, no
    recursion, no per-vertex allocation — a path graph of 10^6 vertices uses
    O(1) OCaml stack. *)

val live_ranks : t -> (int array, Liveness.dead_cycle) result
(** Liveness by topological ranks of the token-free subgraph, mirroring
    {!Liveness.live_ranks} bit for bit: [Ok ranks] satisfies
    [ranks.(src p) < ranks.(dst p)] for every token-free place [p];
    [Error] carries the same witness cycle {!Liveness.live_ranks}
    reports. *)

val topo_ranks : t -> (int array, Liveness.dead_cycle) result
(** Topological ranks over {e all} places (the whole net): the [Acyclic]
    certificate's rank vector. [Error] carries some cycle of the net (its
    places need not be token-free — this is a cyclicity witness, not a
    deadlock witness). *)

(** {2 Howard solver} *)

type result = {
  cycle_time : Ratio.t;  (** max over cycles of (sum of delays / sum of tokens) *)
  critical_places : Tmg.place list;
      (** one critical cycle, as its places in arc order *)
  critical_transitions : Tmg.transition list;
      (** the same cycle, as the consumer transition of each place *)
  potentials : int array;
      (** per-transition optimality witness at [cycle_time] = p/q: for
          {e every} place from [u] to [v],
          [potentials.(v) >= potentials.(u) + q*delay(v) - p*tokens], so no
          directed cycle has ratio above p/q. Together with
          [critical_places] (which attains p/q exactly) this is a complete,
          independently checkable certificate — see [Ermes_verify.Verify]. *)
  howard_iterations : int;  (** policy-improvement rounds (all components) *)
  cancel_iterations : int;
      (** exact-verification rounds that improved the candidate (0 when the
          policy iteration already converged to the optimum) *)
}

type error =
  | Deadlock of Liveness.dead_cycle
      (** a token-free cycle exists: the cycle time is unbounded *)
  | No_cycle  (** the graph is acyclic: no steady-state constraint *)

val throughput : result -> Ratio.t
(** Reciprocal of the cycle time. *)

type solver
(** A reusable analysis context bound to one {!Tmg.t}. It holds the source
    net and re-syncs the frozen arrays against it on each {!solve}:

    - delay edits ({!Tmg.set_delay}) are absorbed for free;
    - endpoint rewires ({!Tmg.rewire_place}) rebuild the adjacency and the
      SCC decomposition but keep the warm policy where it remains a valid
      internal arc;
    - token edits invalidate only the cached liveness verdict;
    - a change in transition/place count re-freezes.

    The last converged policy warm-starts the next solve. On every solve,
    cold or warm, the exact certification starts from Howard's own values:
    each vertex [u] of a cyclic component gets [round (-q * x u)] at the
    candidate ratio p/q, where [x] is the value of the converged policy;
    other vertices keep the last certification fixpoint. At convergence
    these potentials are already feasible up to rounding, so the positive
    cycle search usually dequeues nothing (counter [csr.certify.scans]).
    It is exact from any start, so the seed affects cost, never the
    answer. All per-solve scratch is preallocated: the policy-iteration,
    potential propagation and positive-cycle-cancellation inner loops
    allocate nothing but the final result. *)

val make_solver : Tmg.t -> solver
(** Freeze [tmg] and preallocate all solver scratch. Registers the
    [csr.*] observability counters. *)

val solve : solver -> (result, error) Stdlib.result
(** Exact maximum cycle ratio with certificate ingredients (witness places,
    integer potentials), warm-started from the previous call's policy. The
    first call is a cold analysis; later calls return the same verdicts and
    the same exact cycle time a fresh analysis would. The result's
    [potentials] array is a fresh copy. *)

val cycle_time : Tmg.t -> (result, error) Stdlib.result
(** [solve (make_solver tmg)] — one-shot cold analysis. Works on arbitrary
    (not necessarily strongly connected) nets by taking the worst
    component. *)

(** {2 Cross-check solvers} *)

val karp_unit : t -> Ratio.t option
(** Karp's maximum cycle mean, i.e. the cycle time of a net in which every
    place holds exactly one token: Θ(V·E) per strongly connected component
    via λ* = max{v} min{0 ≤ k < n} (Dₙ(v) − Dₖ(v)) / (n − k), where Dₖ(v)
    is the maximum weight of a k-arc walk ending in [v]. [None] if
    acyclic.
    @raise Invalid_argument if any place's marking differs from 1. *)

val karp_unit_certified :
  t -> (Ratio.t * Tmg.place list * int array, error) Stdlib.result
(** {!karp_unit} extended into a certificate without running another
    cycle-ratio solver: the potentials are the integer longest-path
    fixpoint at the exact mean p/q (reduced cost [q*delay(dst) - p] per
    place; no positive cycle exists at the optimum, so it converges), and
    the witness is a cycle of the tight places ([pot(src) + cost =
    pot(dst)]) — every critical cycle consists of tight places, and every
    cycle of tight places attains p/q. [Error No_cycle] if acyclic (a
    unit-token net cannot deadlock).
    @raise Invalid_argument like {!karp_unit}. *)

val lawler_certified :
  t -> (Ratio.t * Tmg.place list * int array, error) Stdlib.result
(** Lawler's binary search: probe a candidate ratio λ with a float
    Bellman-Ford pass (a cycle of positive reduced cost [delay - λ·tokens]
    exists iff λ is below the optimum), narrow to machine precision, then
    make the best witness exact by the same positive-cycle certification
    Howard uses. O(E·V·log(range)): slower than Howard in practice, which
    is why the paper runs Howard in production. Returns the exact ratio, the
    witness cycle (as place ids of the source net) and integer optimality
    potentials; [Deadlock] carries the token-free cycle of {!live_ranks}. *)
