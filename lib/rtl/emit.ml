let rec expr design buf e =
  let pe = expr design in
  let b fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match e with
  | Ir.Const (v, w) -> b "%d'd%d" w v
  | Ir.Sig s -> b "%s" design.Ir.signals.(s).Ir.name
  | Ir.Not a ->
    b "(~";
    pe buf a;
    b ")"
  | Ir.And (x, y) -> binop design buf "&" x y
  | Ir.Or (x, y) -> binop design buf "|" x y
  | Ir.Eq (x, y) -> binop design buf "==" x y
  | Ir.Lt (x, y) -> binop design buf "<" x y
  | Ir.Add (x, y) -> binop design buf "+" x y
  | Ir.Sub (x, y) -> binop design buf "-" x y
  | Ir.Mux (c, t, f) ->
    b "(";
    pe buf c;
    b " ? ";
    pe buf t;
    b " : ";
    pe buf f;
    b ")"

and binop design buf op x y =
  let b s = Buffer.add_string buf s in
  b "(";
  expr design buf x;
  b (" " ^ op ^ " ");
  expr design buf y;
  b ")"

let range w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let to_verilog (design : Ir.design) =
  let buf = Buffer.create 4096 in
  let b fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inputs =
    Array.to_list design.Ir.signals
    |> List.filteri (fun _ info -> info.Ir.kind = Ir.Input)
  in
  let out_names = List.map (fun s -> design.Ir.signals.(s).Ir.name) design.Ir.outputs in
  b "// Generated by ermes (control skeleton; see Soc_rtl).\n";
  b "module %s (\n  input wire clk,\n  input wire rst" design.Ir.design_name;
  List.iter (fun info -> b ",\n  input wire %s%s" (range info.Ir.width) info.Ir.name) inputs;
  List.iter
    (fun s ->
      let info = design.Ir.signals.(s) in
      b ",\n  output wire %s%s" (range info.Ir.width) info.Ir.name)
    design.Ir.outputs;
  b "\n);\n\n";
  (* Declarations: internal regs and wires (outputs of kind Reg need a
     mirror wire? Verilog-2001 allows output reg; keep outputs as wires and
     declare the register internally with an assign when needed. Simpler:
     declare every non-input, non-output signal here; output regs are
     declared as internal regs with `_q` suffix... To stay simple and
     correct: declare outputs as wires in the port list and, for output
     registers, declare an internal reg of the same name is illegal — so
     registers that are outputs get an internal name plus an assign. *)
  let is_output s = List.mem design.Ir.signals.(s).Ir.name out_names in
  let internal_name s =
    let info = design.Ir.signals.(s) in
    match info.Ir.kind with
    | Ir.Reg _ when is_output s -> info.Ir.name ^ "_q"
    | _ -> info.Ir.name
  in
  (* Re-render expressions against internal names. *)
  let renamed =
    {
      design with
      Ir.signals =
        Array.mapi
          (fun s info -> { info with Ir.name = internal_name s })
          design.Ir.signals;
    }
  in
  Array.iteri
    (fun s info ->
      match info.Ir.kind with
      | Ir.Input -> ()
      | Ir.Wire _ ->
        if not (is_output s) then b "  wire %s%s;\n" (range info.Ir.width) info.Ir.name
      | Ir.Reg _ -> b "  reg %s%s;\n" (range info.Ir.width) (internal_name s))
    design.Ir.signals;
  b "\n";
  (* Output mirrors for registers. *)
  Array.iteri
    (fun s info ->
      match info.Ir.kind with
      | Ir.Reg _ when is_output s -> b "  assign %s = %s;\n" info.Ir.name (internal_name s)
      | _ -> ())
    design.Ir.signals;
  (* Combinational assigns. *)
  Array.iteri
    (fun s info ->
      match info.Ir.kind with
      | Ir.Wire e ->
        let tmp = Buffer.create 64 in
        expr renamed tmp e;
        b "  assign %s = %s;\n" (internal_name s) (Buffer.contents tmp)
      | Ir.Input | Ir.Reg _ -> ())
    design.Ir.signals;
  b "\n  always @(posedge clk) begin\n";
  b "    if (rst) begin\n";
  Array.iteri
    (fun s info ->
      match info.Ir.kind with
      | Ir.Reg { reset; _ } -> b "      %s <= %d'd%d;\n" (internal_name s) info.Ir.width reset
      | _ -> ())
    design.Ir.signals;
  b "    end else begin\n";
  Array.iteri
    (fun s info ->
      match info.Ir.kind with
      | Ir.Reg { next; _ } ->
        let tmp = Buffer.create 64 in
        expr renamed tmp next;
        b "      %s <= %s;\n" (internal_name s) (Buffer.contents tmp)
      | _ -> ())
    design.Ir.signals;
  b "    end\n  end\nendmodule\n";
  Buffer.contents buf
