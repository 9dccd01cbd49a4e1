(** Strongly connected components (Tarjan's algorithm, iterative). *)

type result = {
  component : int array;
      (** component id per vertex; ids are [0 .. count-1] and respect reverse
          topological order of the condensation (a component's id is smaller
          than the ids of components it can reach... see {!components}) *)
  count : int;  (** number of components *)
}

val compute : ('v, 'a) Ermes_digraph.Digraph.t -> result
(** [compute g] assigns every vertex its strongly-connected-component id.
    Tarjan numbers components in reverse topological order: if there is an arc
    from component [c1] to component [c2] (with [c1 <> c2]) then
    [c1 > c2]. *)

val components : result -> Ermes_digraph.Digraph.vertex list array
(** [components r] lists the member vertices of each component, indexed by
    component id. *)

val is_strongly_connected : ('v, 'a) Ermes_digraph.Digraph.t -> bool
(** [is_strongly_connected g] is true iff [g] has exactly one SCC (and at
    least one vertex). *)

val condensation : ('v, 'a) Ermes_digraph.Digraph.t -> result * (unit, unit) Ermes_digraph.Digraph.t
(** [condensation g] is the SCC result together with the acyclic quotient
    graph: one vertex per component, one arc per inter-component arc of [g]
    (parallel arcs preserved). *)
