(** Liveness of timed marked graphs.

    A marked graph is live (every transition can always eventually fire again)
    iff every directed cycle carries at least one token (Commoner et al.,
    1971). A token-free cycle is exactly a deadlock: none of its transitions
    can ever fire. *)

type dead_cycle = {
  dead_transitions : Tmg.transition list;  (** cycle vertices, in arc order *)
  dead_places : Tmg.place list;
      (** the token-free places connecting consecutive transitions (same
          length, [dead_places.(i)] goes from [dead_transitions.(i)] to the
          next transition, cyclically) *)
}

val find_dead_cycle : Tmg.t -> dead_cycle option
(** [find_dead_cycle tmg] returns a token-free cycle if one exists. *)

val live_ranks : Tmg.t -> (int array, dead_cycle) result
(** [live_ranks tmg] is the certificate form of the liveness verdict:
    [Ok ranks] gives one integer per transition with
    [ranks.(src) < ranks.(dst)] for every token-free place — a topological
    order of the token-free subgraph, i.e. a machine-checkable proof that no
    token-free cycle exists; [Error dead] is a token-free witness cycle. *)

val is_live : Tmg.t -> bool
(** [is_live tmg] iff no token-free cycle exists. *)
