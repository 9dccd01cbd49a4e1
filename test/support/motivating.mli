(** The paper's motivating example (Fig. 2–4), reconstructed.

    Five worker processes P2…P6 plus testbench source/sink, eight channels
    a…h:

    {v
        Psrc --a--> P2 --b--> P3 --c--> P4
                    |  \               |
                    f   d              e
                    |    \             |
                    v     v            v
                    P5 --g--------->   P6 --h--> Psnk
    v}

    Latencies are reconstructed from the worked labeling examples of §4,
    which they reproduce exactly (all sixteen forward/backward labels of
    Fig. 4(b)): processes Psrc=1, P2=5, P3=2, P4=1, P5=2, P6=2, Psnk=1;
    channels a=2, b=1, c=2, d=3, e=1, f=1, g=2, h=1.

    The paper's reference results on this system: 36 possible order
    combinations; the ordering P2:puts(f,b,d) / P6:gets(e,g,d) is
    deadlock-free but yields cycle time 20 (throughput 0.05); the optimal
    ordering yields cycle time 12 (40% better); P6:gets(g,d,e) deadlocks. *)

val system : unit -> Ermes_slm.System.t
(** Fresh instance with the statement orders of Listing 1: P2 puts (b, d, f),
    P6 gets (d, e, g). *)

val deadlocking : unit -> Ermes_slm.System.t
(** §2's deadlock scenario: P6 reads first from P5, then from P2, then from
    P4 — gets (g, d, e). *)

val suboptimal : unit -> Ermes_slm.System.t
(** §2's deadlock-avoiding but serializing order: P2 puts (f, b, d), P6 gets
    (e, g, d). Cycle time 20. *)

val optimal : unit -> Ermes_slm.System.t
(** §4's optimal order: P2 puts (b, d, f), P6 gets (d, g, e). Cycle time
    12. *)

val expected_suboptimal_cycle_time : int
(** 20 *)

val expected_optimal_cycle_time : int
(** 12 *)
