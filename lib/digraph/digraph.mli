(** Mutable directed multigraphs.

    Vertices and arcs are identified by dense integer ids assigned in creation
    order; both carry a user payload ("label"). Parallel arcs and self-loops
    are allowed.

    Storage is flat: labels and arc endpoints sit in growable arrays, and the
    in/out adjacency is a CSR index derived from the endpoints on the first
    adjacency query after a change (an added vertex or arc, or a rewire).
    Build first and query after: a caller that alternates additions and
    adjacency queries rebuilds the index each time. A graph that is no longer
    mutated may be queried from several domains at once.

    Out- and in-arc lists are in ascending arc id. Until an arc is rewired
    that is insertion order, which matters for the channel-ordering
    algorithm: the order of a process's [put] statements is exactly the
    insertion order of its outgoing arcs. *)

type vertex = int
type arc = int

type ('v, 'a) t
(** A graph with vertex labels of type ['v] and arc labels of type ['a]. *)

val create : unit -> ('v, 'a) t

val add_vertex : ('v, 'a) t -> 'v -> vertex
(** [add_vertex g label] adds a fresh vertex and returns its id. Ids are
    consecutive starting from [0]. *)

val add_arc : ('v, 'a) t -> src:vertex -> dst:vertex -> 'a -> arc
(** [add_arc g ~src ~dst label] adds a fresh arc [src -> dst]. Ids are
    consecutive starting from [0]. @raise Invalid_argument if either endpoint
    does not exist. *)

val vertex_count : ('v, 'a) t -> int
val arc_count : ('v, 'a) t -> int

val vertex_label : ('v, 'a) t -> vertex -> 'v
val set_vertex_label : ('v, 'a) t -> vertex -> 'v -> unit

val arc_label : ('v, 'a) t -> arc -> 'a
val set_arc_label : ('v, 'a) t -> arc -> 'a -> unit

val arc_src : ('v, 'a) t -> arc -> vertex
val arc_dst : ('v, 'a) t -> arc -> vertex
val arc_ends : ('v, 'a) t -> arc -> vertex * vertex
(** [arc_ends g a] is [(arc_src g a, arc_dst g a)]. *)

val rewire_arc : ('v, 'a) t -> arc -> src:vertex -> dst:vertex -> unit
(** [rewire_arc g a ~src ~dst] moves the existing arc [a] between new
    endpoints, keeping its id and label. Like every arc, it is listed by its
    id in the new endpoints' adjacency, so adjacency order never depends on
    the rewiring history (the CSR analysis core freezes the same order).
    @raise Invalid_argument if the arc or either endpoint does not exist. *)

val out_arcs : ('v, 'a) t -> vertex -> arc list
(** Outgoing arcs of a vertex, in ascending id. *)

val in_arcs : ('v, 'a) t -> vertex -> arc list
(** Incoming arcs of a vertex, in ascending id. *)

val out_degree : ('v, 'a) t -> vertex -> int
val in_degree : ('v, 'a) t -> vertex -> int

val succs : ('v, 'a) t -> vertex -> vertex list
(** Successor vertices (with multiplicity, in ascending arc id). *)

val preds : ('v, 'a) t -> vertex -> vertex list
(** Predecessor vertices (with multiplicity, in ascending arc id). *)

val vertices : ('v, 'a) t -> vertex list
val arcs : ('v, 'a) t -> arc list

val iter_vertices : (vertex -> unit) -> ('v, 'a) t -> unit
val iter_arcs : (arc -> unit) -> ('v, 'a) t -> unit

val fold_vertices : (vertex -> 'acc -> 'acc) -> ('v, 'a) t -> 'acc -> 'acc
val fold_arcs : (arc -> 'acc -> 'acc) -> ('v, 'a) t -> 'acc -> 'acc

val find_arc : ('v, 'a) t -> src:vertex -> dst:vertex -> arc option
(** The arc from [src] to [dst] with the smallest id, if any. *)

val map_labels :
  vertex:('v -> 'w) -> arc:('a -> 'b) -> ('v, 'a) t -> ('w, 'b) t
(** Structure-preserving relabeling; vertex and arc ids are unchanged. *)

val reverse : ('v, 'a) t -> ('v, 'a) t
(** [reverse g] has the same vertices and one arc [dst -> src] per arc
    [src -> dst] of [g], with the same ids and labels. *)
