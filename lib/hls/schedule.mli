(** Resource-constrained list scheduling.

    Schedules a straight-line dataflow body onto a bounded allocation of
    functional units. Operations are prioritized by longest path to a sink
    (critical-path list scheduling); a unit executing a non-pipelined
    operation stays busy for the operation's full occupancy. *)

type allocation = (Op.cls * int) list
(** Units available per class. Classes absent from the list have zero units;
    scheduling a body that uses such a class raises [Invalid_argument]. *)

val schedule : Op.t array -> allocation -> int array
(** [schedule body alloc] returns per-operation finish times under list
    scheduling. @raise Invalid_argument if some class used by [body] has no
    unit. *)

val latency : Op.t array -> allocation -> int
(** Completion time of the whole body: max finish time, [0] for an empty
    body. *)

val resource_min_ii : Op.t array -> allocation -> int
(** Lower bound on a pipelined loop's initiation interval imposed by unit
    occupancy: max over classes of ⌈ops·occupancy / units⌉ (at least 1). *)

val unroll_body : Op.t array -> int -> Op.t array
(** [unroll_body body u] concatenates [u] independent copies of [body] with
    dependence indices offset into each copy. *)
