(** Behavioral description of a process's computation phase.

    A behavior is a sequence of loops; each loop repeats a straight-line
    dataflow body [trip] times. A loop may carry a recurrence (a dependence
    from one iteration to the next), which bounds how aggressively it can be
    unrolled or pipelined — exactly the structures (accumulations, feedback
    filters) that make HLS knob choices interesting.

    This is the input the mini-HLS characterization consumes to produce
    Pareto-optimal micro-architectures (paper §5's "set of Pareto-optimal
    µ-architectures ... obtained as a preprocessing step"). *)

type loop = {
  label : string;
  trip : int;  (** iteration count, ≥ 1 *)
  body : Op.t array;  (** topologically numbered dataflow body *)
  recurrence : int;
      (** minimum initiation interval forced by a loop-carried dependence;
          [0] for fully parallel loops *)
}

type t = {
  name : string;
  loops : loop list;
  local_words : int;
      (** capacity of the process's local SRAM in 16-bit words; [0] means "no
          explicit memory model" and the flat per-port area of
          {!Op.unit_area} applies (see {!Memory}) *)
}

val loop : ?recurrence:int -> label:string -> trip:int -> Op.t array -> loop
(** @raise Invalid_argument if [trip < 1], [recurrence < 0], or the body is
    not topologically numbered (some dep index ≥ its operation's index). *)

val make : ?local_words:int -> string -> loop list -> t
(** [local_words] defaults to 0. @raise Invalid_argument if negative. *)

val op_count : t -> int
(** Total dynamic operation count (body sizes × trip counts). *)

val class_count : loop -> Op.cls -> int
(** Static occurrences of a class in one body. *)

val used_classes : t -> Op.cls list
(** Classes appearing anywhere in the behavior, in {!Op.all} order. *)

val body_critical_path : loop -> int
(** Length in cycles of the longest dependence chain through one body. *)
