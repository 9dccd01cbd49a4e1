(** Integer linear programming by LP-based branch and bound.

    Replaces the GLPK dependency of the paper's prototype. Intended for the
    instances the ERMES methodology generates: one binary variable per
    (process, implementation) pair, one-of-each selection rows, and one or
    two budget rows — up to 243 variables and 29 rows on MPEG-2.

    Branching is depth-first on the most fractional integer variable, with
    bound pruning against the incumbent. The search dives: it explores the
    rounded-up child ([x_i >= floor + 1]) first, which on one-of-each
    binaries fixes a whole group per level, so a first incumbent arrives
    within one level per group. The root LP is solved two-phase once; each
    child copies its parent's optimal tableau, adds its one bound row and
    re-optimizes with {!Simplex.add_row}'s dual simplex, a few pivots a node.

    Each call records an [ilp.solve] span and adds to the counters
    [ilp.solves] (one per call), [ilp.nodes] (LPs solved, infeasible ones
    included) and [ilp.pivots] (simplex pivots over all of them). *)

type result =
  | Optimal of { x : float array; objective : float }
      (** [x] entries of integer variables are integral within [1e-6]; use
          {!int_solution} to extract them as ints. Continuous variables may
          take fractional values (mixed-integer programs). *)
  | Infeasible
  | Unbounded  (** the LP relaxation is unbounded *)

val solve : ?integer:bool array -> Lp.t -> result
(** [solve lp] maximizes/minimizes [lp] with the variables marked in
    [integer] (default: all of them) restricted to non-negative integers. *)

val int_solution : float array -> int array
(** Round every entry to the nearest integer.
    @raise Invalid_argument if some entry is farther than [1e-6] from an
    integer — only meaningful for pure ILPs. *)

val node_count : unit -> int
(** Number of branch-and-bound nodes explored by the most recent {!solve}
    call (for the scalability/ablation benches). *)
