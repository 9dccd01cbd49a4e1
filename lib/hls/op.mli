(** Operation classes and their hardware characteristics.

    The mini-HLS flow schedules dataflow graphs of classed operations onto a
    bounded number of functional units per class. Delays are in clock cycles
    at the paper's 1 GHz / 45 nm operating point; areas are in µm² (totals are
    reported in mm², matching the paper's scale — a characterized process
    lands in the 0.01–0.2 mm² range). *)

type cls =
  | Add  (** additions / subtractions *)
  | Mul
  | Div
  | Mem  (** local-memory access through a port *)
  | Logic  (** bitwise / shift *)
  | Cmp  (** comparisons, min/max *)

val all : cls list

val delay : cls -> int
(** Latency in cycles of one operation on its unit. *)

val pipelined_unit : cls -> bool
(** Whether the functional unit accepts a new operation every cycle
    (dividers do not). *)

val occupancy : cls -> int
(** Cycles the unit is busy per operation: [1] for pipelined units, the full
    delay otherwise. *)

val unit_area : cls -> float
(** Area of one functional unit, µm². *)

val name : cls -> string

type t = {
  cls : cls;
  deps : int list;
      (** indices of operations this one consumes; must be smaller than the
          operation's own index (bodies are topologically numbered) *)
}

val op : ?deps:int list -> cls -> t
