(** Elementary-cycle enumeration (Johnson's algorithm).

    Enumerating all elementary cycles is the impractical-by-definition oracle
    the paper contrasts with Howard's algorithm ("calculating the minimal
    cycle mean ... by Definition 3 is impractical, since it requires the
    enumeration of all the elementary cycles"). It is implemented here for
    exactly that role: a ground-truth cross-check for small nets in the test
    suite and the ablation benchmark. *)

exception Too_many_cycles of int
(** Raised when enumeration exceeds the caller's cycle budget. *)

val elementary_cycles :
  ?limit:int -> ('v, 'a) Ermes_digraph.Digraph.t -> Ermes_digraph.Digraph.arc list list
(** [elementary_cycles g] lists every elementary (no repeated vertex) directed
    cycle of [g], each as its arcs in order. Parallel arcs yield distinct
    cycles. Self-loops are length-1 cycles.
    @param limit abort with {!Too_many_cycles} beyond this many cycles
    (default 1_000_000). *)

val count : ?limit:int -> ('v, 'a) Ermes_digraph.Digraph.t -> int
(** Number of elementary cycles. *)

val max_cycle_ratio_brute : Ermes_tmg.Tmg.t -> (Ermes_tmg.Ratio.t * Ermes_tmg.Tmg.place list) option
(** Exact maximum cycle ratio (delay sum / token sum) by full enumeration,
    with a witness cycle. [None] when the net is acyclic.
    @raise Too_many_cycles on nets with more than a million cycles
    @raise Invalid_argument if some cycle is token-free (deadlock — the ratio
    is unbounded; check {!Ermes_tmg.Liveness.is_live} first). *)
