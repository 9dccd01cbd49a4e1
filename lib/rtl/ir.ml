module Vec = Ermes_digraph.Vec
module Digraph = Ermes_digraph.Digraph
module Traversal = Ermes_digraph.Traversal

type signal = int

type expr =
  | Const of int * int
  | Sig of signal
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Eq of expr * expr
  | Lt of expr * expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mux of expr * expr * expr

type kind = Input | Wire of expr | Reg of { reset : int; next : expr }

type signal_info = { name : string; width : int; kind : kind }

type design = {
  design_name : string;
  signals : signal_info array;
  outputs : signal list;
}

let rec signals_of expr acc =
  match expr with
  | Const _ -> acc
  | Sig s -> s :: acc
  | Not a -> signals_of a acc
  | And (a, b) | Or (a, b) | Eq (a, b) | Lt (a, b) | Add (a, b) | Sub (a, b) ->
    signals_of a (signals_of b acc)
  | Mux (c, t, e) -> signals_of c (signals_of t (signals_of e acc))

(* Width checking: [Eq]/[Lt] produce 1 bit from equal-width operands;
   the boolean connectives and arithmetic require equal widths and keep
   them; [Mux] requires a 1-bit condition. *)
let width_of lookup =
  let rec go = function
    | Const (v, w) ->
      if w < 1 || w > 62 then invalid_arg "Ir: constant width out of range";
      if v < 0 || (w < 62 && v >= 1 lsl w) then
        invalid_arg (Printf.sprintf "Ir: constant %d does not fit in %d bits" v w);
      w
    | Sig s -> lookup s
    | Not a -> go a
    | And (a, b) | Or (a, b) | Add (a, b) | Sub (a, b) ->
      let wa = go a and wb = go b in
      if wa <> wb then
        invalid_arg (Printf.sprintf "Ir: width mismatch %d vs %d" wa wb);
      wa
    | Eq (a, b) | Lt (a, b) ->
      let wa = go a and wb = go b in
      if wa <> wb then
        invalid_arg (Printf.sprintf "Ir: comparison width mismatch %d vs %d" wa wb);
      1
    | Mux (c, t, e) ->
      if go c <> 1 then invalid_arg "Ir: mux condition must be 1 bit";
      let wt = go t and we = go e in
      if wt <> we then
        invalid_arg (Printf.sprintf "Ir: mux arm width mismatch %d vs %d" wt we);
      wt
  in
  go

let expr_width design = width_of (fun s -> design.signals.(s).width)

module Builder = struct
  type entry = { mutable info : signal_info; mutable driven : bool }

  type t = {
    bname : string;
    entries : entry Vec.t;
    names : (string, unit) Hashtbl.t;
    outs : signal Vec.t;
  }

  let create ~name =
    { bname = name; entries = Vec.create (); names = Hashtbl.create 64; outs = Vec.create () }

  let declare b ~name ~width kind =
    if width < 1 || width > 62 then
      invalid_arg (Printf.sprintf "Ir.Builder: width %d out of range for %s" width name);
    if Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Ir.Builder: duplicate signal name %S" name);
    Hashtbl.add b.names name ();
    Vec.push b.entries { info = { name; width; kind }; driven = true }

  let input b ~name ~width = declare b ~name ~width Input

  let wire b ~name ~width expr = declare b ~name ~width (Wire expr)

  let reg b ~name ~width ~reset =
    if reset < 0 || (width < 62 && reset >= 1 lsl width) then
      invalid_arg (Printf.sprintf "Ir.Builder: reset %d does not fit %s" reset name);
    let s = declare b ~name ~width (Reg { reset; next = Const (reset, width) }) in
    (Vec.get b.entries s).driven <- false;
    s

  let drive b s expr =
    let e = Vec.get b.entries s in
    match e.info.kind with
    | Reg { reset; _ } when not e.driven ->
      e.info <- { e.info with kind = Reg { reset; next = expr } };
      e.driven <- true
    | Reg _ -> invalid_arg (Printf.sprintf "Ir.Builder: %s driven twice" e.info.name)
    | Input | Wire _ ->
      invalid_arg (Printf.sprintf "Ir.Builder: %s is not a register" e.info.name)

  let output b s = ignore (Vec.push b.outs s)

  let finish b =
    Vec.iter
      (fun e ->
        if not e.driven then
          invalid_arg (Printf.sprintf "Ir.Builder: register %s never driven" e.info.name))
      b.entries;
    let signals = Array.of_list (List.map (fun e -> e.info) (Vec.to_list b.entries)) in
    let design = { design_name = b.bname; signals; outputs = Vec.to_list b.outs } in
    (* Width check every assignment. *)
    let w = expr_width design in
    Array.iter
      (fun info ->
        match info.kind with
        | Input -> ()
        | Wire e | Reg { next = e; _ } ->
          let we = w e in
          if we <> info.width then
            invalid_arg
              (Printf.sprintf "Ir.Builder: %s has width %d but its expression has %d"
                 info.name info.width we))
      signals;
    (* Combinational cycles: wires may only depend on wires acyclically. *)
    let g = Digraph.create () in
    Array.iter (fun _ -> ignore (Digraph.add_vertex g ())) signals;
    Array.iteri
      (fun s info ->
        match info.kind with
        | Wire e ->
          List.iter
            (fun dep ->
              match signals.(dep).kind with
              | Wire _ -> ignore (Digraph.add_arc g ~src:dep ~dst:s ())
              | Input | Reg _ -> ())
            (signals_of e [])
        | Input | Reg _ -> ())
      signals;
    (match Traversal.topological_sort g with
     | Ok _ -> ()
     | Error cycle ->
       invalid_arg
         (Printf.sprintf "Ir.Builder: combinational cycle through [%s]"
            (String.concat " " (List.map (fun s -> signals.(s).name) cycle))));
    design
end
