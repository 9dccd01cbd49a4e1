(** Earliest-firing (max-plus) execution of a timed marked graph.

    Under the earliest-firing rule, the completion time of the [k]-th firing
    of transition [t] obeys the max-plus recurrence

    {v x_t(k) = d(t) + max over in-places p = (s -> t) of x_s(k - M0(p)) v}

    with [x(j) = 0] for [j <= 0] (initial tokens are available at time 0).
    For a strongly connected live net, [x_t(k) / k] converges to the cycle
    time, and the evolution is eventually periodic: there exist K, c with
    [x(k + c) = x(k) + c * ct] for all [k >= K] (max-plus cyclicity theorem).

    This module executes the recurrence directly. It is an {e independent}
    characterization of the steady-state behaviour, used to validate
    {!Csr.cycle_time} and the discrete-event simulator in the test
    suite. *)

val firing_times : Tmg.t -> rounds:int -> int array array
(** [firing_times tmg ~rounds] is a matrix [x] with [x.(t).(k-1)] the
    completion time of the [k]-th firing of transition [t], for
    [k = 1..rounds].
    @raise Invalid_argument if [rounds < 1] or the net is not live. *)

val measured_cycle_time : Tmg.t -> rounds:int -> Ratio.t option
(** [measured_cycle_time tmg ~rounds] proves the exact asymptotic slope by
    a state recurrence ({!Recurrence}). Round [k + 1] reads only the last
    [m] rounds, [m] the largest marking, so those rounds minus [x_0(k)] are
    the schedule's whole state; it keeps them in a ring of [m + 1] rounds,
    not an n × [rounds] matrix. When round [k] repeats the state of round
    [k - c] shifted by [D], every later round repeats too, and the answer
    is [D / c]. [rounds] is a budget: [None] if no state recurs within it
    (raise it), never a period fitted to part of the schedule. Counts
    [firing.recurrences] on {!Ermes_obs.Obs}.
    @raise Invalid_argument if the net is not live. *)
