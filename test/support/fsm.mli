(** Per-process RTL control FSM (paper Fig. 2(b)).

    HLS of a three-phase process produces a cyclic finite state machine: one
    state per [get], a chain of computation states whose length is the
    synthesized micro-architecture's latency, one state per [put], and a
    reset state. Each I/O state has a self-loop on which the circuit stalls
    while the channel's peer is not ready — the hardware embodiment of the
    blocking protocol, and the reason statement order survives synthesis.

    This module materializes that FSM from the system model, for
    documentation, DOT export, and structural tests; the discrete-event
    simulator ({!Ermes_slm.Sim}) executes the same state structure directly. *)

type state =
  | Reset
  | Get of Ermes_slm.System.channel  (** stalls until the producer is ready *)
  | Compute of int  (** [Compute k]: k-th computation state, 0-based *)
  | Put of Ermes_slm.System.channel  (** stalls until the consumer is ready *)

type t = {
  process : Ermes_slm.System.process;
  states : state array;
      (** [Reset] first, then the cyclic body in execution order: gets,
          computation chain, puts. After the last body state control returns
          to the first body state. *)
}

val of_process : Ermes_slm.System.t -> Ermes_slm.System.process -> t

val io_state_count : t -> int
(** Number of [Get]/[Put] states — "as many I/O states as the number of
    get/put statements" (paper §2). *)

val compute_state_count : t -> int

val pp : Ermes_slm.System.t -> Format.formatter -> t -> unit

val to_dot : Ermes_slm.System.t -> t -> string
(** Graphviz rendering with wait self-loops on the I/O states. *)
