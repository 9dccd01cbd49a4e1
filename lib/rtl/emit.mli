(** Verilog emission.

    Prints an {!Ir.design} as one flat synthesizable Verilog-2001 module:
    inputs and outputs in the port list plus [clk] and [rst] (synchronous,
    active-high reset to each register's reset value), one [assign] per wire,
    one [always @(posedge clk)] block for the registers. What is emitted is
    exactly what {!Interp} executes. *)

val to_verilog : Ir.design -> string

