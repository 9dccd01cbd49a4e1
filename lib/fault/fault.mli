(** Fault models for the system-level model.

    A fault perturbs a system the way silicon or an environment would:
    slower-than-characterized links and computations, shrunken buffers,
    transient link stalls, or a lost synchronization token. Faults come in
    two operational flavours:

    - {e structural} faults (latency jitter, process slowdown, FIFO shrink)
      are expressible as a different — but still well-formed — system, so
      {!apply} rebuilds a faulted copy that every static analysis accepts
      unchanged;
    - {e dynamic} faults (transient channel stall, token removal) have no
      system-level counterpart: they are injected into the discrete-event
      simulator through {!Ermes_slm.Sim.hooks} and, for the analyses, into
      the TMG marking through {!remove_tokens}.

    A transient stall delays finitely many transfers, so it perturbs the
    transient schedule but never the steady-state cycle time; a token
    removal empties a process's statement-cycle place, which deadlocks every
    cycle through that process — {!Ermes_tmg.Liveness}, Howard's algorithm
    and the simulator watchdog all detect it, and must agree. *)

module System = Ermes_slm.System

type t =
  | Latency_jitter of { channel : System.channel; delta : int }
      (** the channel's transfer latency drifts by [delta] cycles (clamped so
          the faulted latency stays ≥ 1) *)
  | Process_slowdown of { process : System.process; delta : int }
      (** the selected implementation of [process] runs [delta] ≥ 0 cycles
          slower *)
  | Fifo_shrink of { channel : System.channel; depth : int }
      (** a FIFO channel loses buffer slots down to [depth] ≥ 1 (no effect on
          rendezvous channels or when [depth] exceeds the current depth) *)
  | Channel_stall of { channel : System.channel; at_transfer : int; cycles : int }
      (** the [at_transfer]-th transfer (0-based) over [channel] takes
          [cycles] extra cycles — a transient, simulator-only fault *)
  | Token_removal of { process : System.process }
      (** the initial token of [process]'s statement cycle is lost: the
          process never starts, and every cycle through it deadlocks *)

type scenario = t list

val is_structural : t -> bool
(** Whether {!apply} captures the fault ([Latency_jitter],
    [Process_slowdown], [Fifo_shrink]); dynamic faults ([Channel_stall],
    [Token_removal]) need {!hooks} / {!remove_tokens}. *)

val apply : System.t -> scenario -> System.t
(** [apply sys scenario] is a fresh system with every structural fault of
    [scenario] folded in. Process and channel ids, names, statement orders,
    selections and phases are preserved, so fault descriptions remain valid
    against the copy; dynamic faults are ignored. Latencies are clamped to
    stay well-formed (process ≥ 0, channel ≥ 1, FIFO depth ≥ 1). *)

val hooks : scenario -> Ermes_slm.Sim.hooks
(** Simulator hooks realizing the dynamic faults of [scenario]: the stall
    schedule (cycles add up per channel and transfer index), and every
    [Token_removal] process marked stuck. *)

val stall_budget : scenario -> int
(** Total extra cycles the [Channel_stall] faults can inject — add it to the
    simulation cycle budget so a transient fault is not misread as a
    livelock. *)

val remove_tokens : Ermes_slm.To_tmg.mapping -> scenario -> unit
(** Zero the initial place of every [Token_removal] process in the mapping's
    TMG, mirroring the dynamic fault for the static analyses. *)

val stuck_processes : scenario -> System.process list

val to_spec : System.t -> t -> string
(** Render a fault as a command-line spec:
    [jitter:CH:D], [slow:P:D], [shrink:CH:K], [stall:CH:C@K],
    [droptoken:P]. *)

val parse_spec : System.t -> string -> (t, string) result
(** Inverse of {!to_spec}; names are resolved against [sys]. *)

val pp : System.t -> Format.formatter -> t -> unit
