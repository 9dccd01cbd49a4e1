(** Two-phase dense primal simplex, with dual re-optimization.

    Solves {!Lp.t} problems (implicitly non-negative variables). Phase 1
    drives artificial variables out to find a basic feasible solution; phase 2
    optimizes the user objective. Entering and leaving variables are selected
    with Bland's rule, which excludes cycling. The tableau carries its
    reduced-cost row and updates it at every pivot, so pricing a column is a
    read, not an O(rows) sum. The ERMES exploration's LPs on MPEG-2 reach
    243 variables and 29 rows.

    {!add_row} serves branch and bound: it appends one constraint to a copy
    of an optimal tableau and restores feasibility with the dual simplex, from
    the parent basis, which stays dual feasible. Its leaving row is the
    negative right-hand side whose basic column is smallest, and its entering
    column the minimum ratio, ties broken by the smallest column; this
    dual form of Bland's rule excludes cycling too. *)

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : Lp.t -> outcome
(** [solve lp] returns an optimal basic solution, or reports infeasibility /
    unboundedness. The solution satisfies [Lp.feasible lp x] up to the
    pivoting rules' tolerance ([1e-9]). *)

(** {1 Warm re-optimization} *)

type tableau
(** An optimal tableau: an LP's rows and reduced costs written in an optimal
    basis. Immutable once returned; {!add_row} works on a copy. *)

val solve_tableau : Lp.t -> [ `Optimal of tableau | `Infeasible | `Unbounded ]
(** [solve_tableau lp] is {!solve} stopped before reading the solution out. *)

val point : tableau -> float array * float
(** The basic solution of a tableau and its objective value. *)

val add_row : tableau -> Lp.row -> tableau option
(** [add_row t r] is an optimal tableau of [t]'s LP with the row [r] added,
    or [None] when that LP is infeasible. [t] is left unchanged; an [Eq] row
    is added as its [Le] and [Ge] halves.
    @raise Invalid_argument on a variable index outside [t]'s LP. *)

val pivots : unit -> int
(** Pivots the calling domain has performed so far; a caller counts its own
    as a difference. *)
