(** Timed marked graphs (paper §3, Definition 1).

    A marked graph is a Petri net in which every place has exactly one input
    transition and one output transition. That structural property lets a
    place be represented as an {e arc} between its producer and consumer
    transitions, so the whole net is a directed multigraph over transitions:
    vertices are transitions (carrying the timing function [d]), arcs are
    places (carrying the initial marking [M0]). All cycle metrics — cycle
    mean, cycle time, liveness — are computed on this arc representation.

    Delays and markings are non-negative integers (clock cycles and
    tokens). *)

type transition = Ermes_digraph.Digraph.vertex
type place = Ermes_digraph.Digraph.arc

type t

val create : unit -> t

val add_transition : t -> ?name:string -> delay:int -> unit -> transition
(** [add_transition tmg ~delay ()] adds a transition with the given firing
    delay. @raise Invalid_argument if [delay < 0]. *)

val add_place :
  t -> ?name:string -> src:transition -> dst:transition -> tokens:int -> unit -> place
(** [add_place tmg ~src ~dst ~tokens ()] adds a place fed by [src] and feeding
    [dst], holding [tokens] initial tokens.
    @raise Invalid_argument if [tokens < 0]. *)

val transition_count : t -> int
val place_count : t -> int

val delay : t -> transition -> int

val set_delay : t -> transition -> int -> unit
(** [set_delay tmg t d] replaces the firing delay of [t] in place — the
    incremental hook for micro-architecture selection changes.
    @raise Invalid_argument if [d < 0]. *)

val transition_name : t -> transition -> string

val tokens : t -> place -> int
val set_tokens : t -> place -> int -> unit
val place_name : t -> place -> string

val place_src : t -> place -> transition
val place_dst : t -> place -> transition

val rewire_place :
  t -> place -> ?name:string -> src:transition -> dst:transition -> tokens:int -> unit -> unit
(** [rewire_place tmg p ~src ~dst ~tokens ()] moves the existing place [p]
    between new endpoint transitions and replaces its marking (and optionally
    its name), keeping its id — the incremental hook for statement-order
    changes, which rewire a process's chain places without rebuilding the
    net. The place is then listed by its id among its new endpoints' places,
    as in a net built fresh with the same places.
    @raise Invalid_argument if [tokens < 0] or an endpoint is unknown. *)

val in_places : t -> transition -> place list
(** Places feeding a transition, in ascending id (insertion order until a
    place is rewired). *)

val out_places : t -> transition -> place list
(** Places fed by a transition, in ascending id (insertion order until a
    place is rewired). *)

val transitions : t -> transition list
val places : t -> place list

val total_tokens : t -> int
(** Sum of the initial marking over all places. *)

val cycle_tokens : t -> place list -> int
(** [cycle_tokens tmg ps] sums the marking over the given places. For a cycle
    this quantity is invariant under any firing sequence (paper §3). *)

val cycle_delay : t -> place list -> int
(** [cycle_delay tmg ps] sums the delays of the consumer transitions of the
    given places. Along a cycle, each transition on the cycle is counted
    exactly once. *)

val cycle_ratio : t -> place list -> Ratio.t option
(** Delay sum over token sum of a cycle: the reciprocal of the cycle mean of
    Definition 3. [None] if the cycle carries no token (its "ratio" is
    infinite: the cycle can never fire — deadlock). *)

val graph : t -> (string * int, string * int) Ermes_digraph.Digraph.t
(** A copy of the net as a multigraph with the same ids: vertex label =
    (name, delay), arc label = (name, tokens). Mutating it leaves the net
    unchanged. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump (transitions, then places with marking). *)

val to_dot : t -> string
(** Graphviz rendering: boxes for transitions (label: name/delay), arcs for
    places annotated with their marking. *)
