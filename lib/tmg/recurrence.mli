(** Exact steady state by state recurrence.

    A deterministic closed system whose whole state recurs is exactly
    periodic from then on: whatever happened between the two visits happens
    again, shifted in time. This is the max-plus cyclicity of a timed marked
    graph (Baccelli, Cohen, Olsder and Quadrat, {e Synchronization and
    Linearity}, 1992) in its operational form, and the reason the TMG cycle
    time is the steady-state period (paper §3).

    Each engine that measures a period — the max-plus firing schedule
    ({!Firing}), the discrete-event simulator and the RTL co-simulation —
    feeds its own state vector here once per monitored iteration, and stops
    at the first repeated state. The period that comes back is proved, not
    fitted to a window of completion times, and no state is compared on a
    sample of its entries. *)

type t

val create : unit -> t

val observe : t -> int array -> iteration:int -> time:int -> Ratio.t option
(** [observe r state ~iteration ~time] records that the engine is in
    [state] after [iteration] monitored iterations, at [time]. If the same
    state was recorded before, at iteration [i0] and time [t0], the result
    is [Some ((time - t0) / (iteration - i0))]: the exact period per
    iteration from [i0] on. [state] must hold everything that determines
    the engine's future (times relative to [time]), must not be mutated
    afterwards, and [iteration] must grow from one call to the next. *)
