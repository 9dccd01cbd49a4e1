(** A minimal synthesizable RTL intermediate representation.

    The system-level flow ends, as in the paper, with RTL: a control skeleton
    per SoC — the per-process FSMs of Fig. 2(b) and the channel handshake
    logic — expressed in a synchronous single-clock IR with registers,
    combinational wires, and word-level expressions. The same IR feeds two
    consumers: the Verilog emitter ({!Emit}) and the cycle-accurate
    interpreter ({!Interp}), so what is printed is exactly what is
    simulated.

    Designs are flat (no module hierarchy): one design models one SoC. All
    signals are unsigned, 1–62 bits wide; arithmetic wraps at the signal
    width. *)

type signal = int
(** Dense ids, assigned by {!Builder}. *)

type expr =
  | Const of int * int  (** value, width *)
  | Sig of signal
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Eq of expr * expr
  | Lt of expr * expr  (** unsigned *)
  | Add of expr * expr
  | Sub of expr * expr  (** wrapping *)
  | Mux of expr * expr * expr  (** condition (non-zero = true), then, else *)

type kind =
  | Input  (** driven from outside (the testbench/interpreter) *)
  | Wire of expr  (** combinational assignment *)
  | Reg of { reset : int; next : expr }  (** synchronous, updated every clock *)

type signal_info = { name : string; width : int; kind : kind }

type design = {
  design_name : string;
  signals : signal_info array;  (** indexed by signal id *)
  outputs : signal list;  (** signals exposed as module outputs *)
}

module Builder : sig
  type t

  val create : name:string -> t

  val input : t -> name:string -> width:int -> signal

  val wire : t -> name:string -> width:int -> expr -> signal
  (** A named combinational signal. Widths are checked at {!finish}. *)

  val reg : t -> name:string -> width:int -> reset:int -> signal
  (** Declare a register; its next-state function is supplied later with
      {!drive} (registers routinely depend on wires defined afterwards). *)

  val drive : t -> signal -> expr -> unit
  (** Set a register's next-state expression. @raise Invalid_argument if the
      signal is not an undriven register. *)

  val output : t -> signal -> unit
  (** Mark a signal as a module output. *)

  val finish : t -> design
  (** Validates the design: every register driven, names unique,
      combinational logic acyclic, widths consistent (every assignment's
      expression must have exactly its signal's width).
      @raise Invalid_argument with a diagnostic otherwise. *)
end

val signals_of : expr -> signal list -> signal list
(** Prepend the signals an expression reads (with repetitions). *)
