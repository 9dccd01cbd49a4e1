(** Machine-checkable certificates for TMG analyses, and their independent
    checker.

    The solvers ({!Ermes_tmg.Csr}'s Howard, Karp and Lawler, and
    {!Ermes_tmg.Liveness}) are the trusted-computing base of every verdict
    this toolkit emits — and with warm-started, cache-heavy solving
    (incremental sessions, policy reuse, potential reuse) that base has real
    state to get wrong. Each analysis therefore returns a small
    {e certificate} whose validity implies the verdict, and {!check_csr}
    checks it {e independently}: it reads a fresh {!Ermes_tmg.Csr.of_tmg}
    of the net — never a solver's arrays — and uses exact integer
    arithmetic: no solver code, no floats, no caches. A bug anywhere in the
    solver stack (or a stale cache) produces a certificate the checker
    rejects; it cannot produce a wrong verdict that still checks out. The
    freeze itself is the one piece of shared code the checker trusts; the
    test suite pins it by a freeze/thaw round-trip through every {!Tmg}
    accessor and by the pointer {!Ermes_tmg.Liveness} agreeing with
    {!Ermes_tmg.Csr.live_ranks}.

    Certificate semantics (paper §3: deadlock freedom ⇔ no token-free
    cycle; cycle time = maximum cycle ratio):

    - {!Bounded}: the net is live and its maximum cycle ratio is exactly
      [ratio] = p/q. The {e witness} cycle attains p/q (lower bound); the
      {e potentials} prove no cycle exceeds it (upper bound): summing
      [pot(dst) - pot(src) >= q*delay - p*tokens] around any cycle gives
      [q*delay(C) <= p*tokens(C)]. The {e ranks} topologically order the
      token-free subgraph, proving liveness.
    - {!Deadlocked}: a token-free cycle — its transitions can never fire.
    - {!Acyclic}: a topological order of the whole net — no cycle exists,
      so no steady-state constraint (and trivially no deadlock).

    Every obligation is checked in O(E) with machine integers (delay and
    token magnitudes are bounded far below overflow, see
    {!Ermes_tmg.Ratio}). *)

module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio

type t =
  | Bounded of {
      ratio : Ratio.t;  (** claimed maximum cycle ratio p/q *)
      witness : Tmg.place list;
          (** a cycle (as places in arc order) attaining exactly p/q *)
      potentials : int array;
          (** per transition: [pot.(dst p) >= pot.(src p) + q*delay(dst p) -
              p*tokens(p)] for {e every} place [p] *)
      ranks : int array;
          (** per transition: [ranks.(src p) < ranks.(dst p)] for every
              token-free place [p] — liveness proof *)
    }
  | Deadlocked of { cycle : Tmg.place list }
      (** a token-free cycle, as places in arc order *)
  | Acyclic of { ranks : int array }
      (** per transition: [ranks.(src p) < ranks.(dst p)] for {e every}
          place [p] *)
  | Live of { ranks : int array }
      (** liveness proof alone (no cycle-time claim): [ranks.(src p) <
          ranks.(dst p)] for every {e token-free} place [p] *)

type violation = {
  obligation : string;  (** short name of the failed proof obligation *)
  detail : string;  (** what exactly did not hold *)
}

val check_csr : Ermes_tmg.Csr.t -> t -> (unit, violation) result
(** [check_csr g cert] validates every proof obligation of [cert] against
    the frozen net [g]: allocation-free scans over the flat arrays with
    exact integer arithmetic, never calling solver code, O(E) — suitable for
    million-place nets. For independence pass a fresh
    {!Ermes_tmg.Csr.of_tmg}, not a solver's internal state. *)

val describe : t -> string
(** One-line human-readable summary ("bounded: ratio 12/1, witness of 5
    places, ..."). *)

val pp_violation : Format.formatter -> violation -> unit

(** {2 Constructors from solver outputs}

    These translate each solver's native result into a certificate, reading
    rank vectors off the CSR core ({!Ermes_tmg.Csr.live_ranks} /
    {!Ermes_tmg.Csr.topo_ranks}). They may call solver code (only
    {!check_csr} is independent); a disagreement between the pieces they
    assemble yields a certificate {!check_csr} rejects, never a silently
    wrong one. *)

val of_howard_csr :
  Ermes_tmg.Csr.t ->
  (Ermes_tmg.Csr.result, Ermes_tmg.Csr.error) result ->
  t
(** From {!Ermes_tmg.Csr.solve} / {!Ermes_tmg.Csr.cycle_time}. *)

val of_certified :
  Ermes_tmg.Csr.t ->
  (Ratio.t * Tmg.place list * int array, Ermes_tmg.Csr.error) result ->
  t
(** From {!Ermes_tmg.Csr.lawler_certified} or
    {!Ermes_tmg.Csr.karp_unit_certified}: ratio, witness cycle and
    potentials. *)

val of_liveness : Tmg.t -> t
(** The liveness-only certificate: {!Deadlocked} with a token-free witness
    cycle on a dead net, {!Live} with the token-free-subgraph ranks
    otherwise — checkable proof of the deadlock verdict alone. Built by the
    pointer {!Ermes_tmg.Liveness}, so it is independent of the CSR core. *)
