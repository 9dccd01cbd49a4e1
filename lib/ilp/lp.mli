(** Linear-program representation.

    Variables are indexed [0 .. nvars-1] and implicitly non-negative;
    additional bounds are expressed as ordinary constraint rows. The problems
    ERMES builds on MPEG-2 reach 243 variables and 29 rows, and branch and
    bound adds one bound row per level, so a dense tableau without a
    bounded-variable simplex serves. *)

type op = Le | Ge | Eq

type objective = Maximize | Minimize

type row = { coeffs : (int * float) list; op : op; rhs : float }
(** A sparse constraint row: [sum coeffs op rhs]. Variable indices may not
    repeat within a row. *)

type t = {
  nvars : int;
  objective : objective;
  costs : float array;  (** length [nvars] *)
  rows : row list;
}

val make : objective -> float array -> row list -> t
(** [make obj costs rows] validates indices and builds a problem.
    @raise Invalid_argument on out-of-range or duplicate variable indices. *)

val row : (int * float) list -> op -> float -> row

val feasible : ?eps:float -> t -> float array -> bool
(** [feasible lp x] checks non-negativity and every row within tolerance
    [eps] (default [1e-6]). *)

val objective_value : t -> float array -> float

val pp : Format.formatter -> t -> unit
