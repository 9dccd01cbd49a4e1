type sharing = Minimal | Quarter | Half | Full

type knobs = { unroll : int; pipelined : bool; sharing : sharing; banking : int }

type point = { knobs : knobs; latency : int; area : float }

let sharing_fraction = function
  | Minimal -> 0.
  | Quarter -> 0.25
  | Half -> 0.5
  | Full -> 1.

(* Peak demand for a class across the unrolled bodies of every loop. *)
let peak_demand b ~unroll cls =
  List.fold_left
    (fun acc (l : Behavior.loop) ->
      let u = min unroll l.trip in
      max acc (Behavior.class_count l cls * u))
    0 b.Behavior.loops

let allocation_for ?(banking = 1) b ~unroll sharing =
  let f = sharing_fraction sharing in
  List.filter_map
    (fun cls ->
      let peak = peak_demand b ~unroll cls in
      if peak = 0 then None
      else if cls = Op.Mem && b.Behavior.local_words > 0 then
        (* Explicit memory: the banks are the ports. *)
        Some (cls, min banking peak |> max 1)
      else
        let u = max 1 (int_of_float (ceil (f *. float_of_int peak))) in
        Some (cls, min u peak))
    Op.all

(* Area coefficients (µm², 45 nm flavour). *)
let reg_area = 150.
let pipeline_reg_factor = 0.3
let state_area = 25.
let mux_area_per_shared_op = 120.

(* Returns (schedule depth of one unrolled body, latency of the whole loop). *)
let loop_latency (l : Behavior.loop) ~unroll ~pipelined alloc =
  let u = min unroll l.trip in
  let body = Schedule.unroll_body l.body u in
  let depth = Schedule.latency body alloc in
  let iters = (l.trip + u - 1) / u in
  let latency =
    if pipelined then begin
      let ii = max (Schedule.resource_min_ii body alloc) (max 1 (l.recurrence * u)) in
      depth + (ii * (iters - 1))
    end
    else begin
      let seq = iters * (depth + 1) in
      max seq (l.trip * l.recurrence)
    end
  in
  (depth, latency)

let evaluate b knobs =
  if knobs.unroll < 1 then invalid_arg "Design.evaluate: unroll must be >= 1";
  let banking = if b.Behavior.local_words > 0 then knobs.banking else 1 in
  (match Memory.validate { Memory.words = max 1 b.Behavior.local_words; banks = banking } with
   | Ok () -> ()
   | Error m -> invalid_arg ("Design.evaluate: " ^ m));
  let alloc = allocation_for ~banking b ~unroll:knobs.unroll knobs.sharing in
  let per_loop =
    List.map
      (fun l -> loop_latency l ~unroll:knobs.unroll ~pipelined:knobs.pipelined alloc)
      b.Behavior.loops
  in
  let latency =
    List.fold_left (fun acc (_, lat) -> acc + lat + 1) 0 per_loop |> max 1
  in
  (* Functional units; with an explicit local memory the [Mem] "units" are
     the SRAM's ports, and the macro is costed by the banking model
     instead. *)
  let fu =
    List.fold_left
      (fun acc (cls, u) ->
        if cls = Op.Mem && b.Behavior.local_words > 0 then acc
        else acc +. (float_of_int u *. Op.unit_area cls))
      0. alloc
  in
  let fu =
    if b.Behavior.local_words > 0 then
      fu +. Memory.area { Memory.words = b.Behavior.local_words; banks = banking }
    else fu
  in
  (* Registers: proportional to the largest unrolled body (live values), with
     a surcharge for pipeline registers. *)
  let max_body =
    List.fold_left
      (fun acc (l : Behavior.loop) ->
        max acc (Array.length l.body * min knobs.unroll l.trip))
      0 b.Behavior.loops
  in
  let regs = reg_area *. float_of_int max_body in
  let regs = if knobs.pipelined then regs *. (1. +. pipeline_reg_factor) else regs in
  (* Control: one FSM state per cycle of each loop body's schedule. *)
  let states = List.fold_left (fun acc (depth, _) -> acc + depth) 0 per_loop in
  let ctrl = state_area *. float_of_int (states + 2) in
  (* Sharing multiplexers: every operation beyond the allocated units of its
     class needs steering logic. *)
  let mux =
    List.fold_left
      (fun acc (cls, u) ->
        let peak = peak_demand b ~unroll:knobs.unroll cls in
        acc +. (mux_area_per_shared_op *. float_of_int (max 0 (peak - u))))
      0. alloc
  in
  { knobs; latency; area = fu +. regs +. ctrl +. mux }

let default_unrolls = [ 1; 2; 4; 8 ]

let sweep ?(unrolls = default_unrolls) b =
  let max_trip =
    List.fold_left (fun acc (l : Behavior.loop) -> max acc l.trip) 1 b.Behavior.loops
  in
  let unrolls = List.sort_uniq compare (List.map (fun u -> min u max_trip) unrolls) in
  let bankings =
    if b.Behavior.local_words > 0 then
      List.map (fun (c : Memory.config) -> c.Memory.banks) (Memory.sweep ~words:b.Behavior.local_words)
    else [ 1 ]
  in
  List.concat_map
    (fun unroll ->
      List.concat_map
        (fun pipelined ->
          List.concat_map
            (fun sharing ->
              List.map
                (fun banking -> evaluate b { unroll; pipelined; sharing; banking })
                bankings)
            [ Minimal; Quarter; Half; Full ])
        [ false; true ])
    unrolls

let pareto points =
  let dominates a b =
    (a.latency <= b.latency && a.area <= b.area)
    && (a.latency < b.latency || a.area < b.area)
  in
  let non_dominated p = not (List.exists (fun q -> dominates q p) points) in
  let keep = List.filter non_dominated points in
  let keep =
    List.sort_uniq
      (fun a b ->
        match compare a.latency b.latency with 0 -> compare a.area b.area | c -> c)
      keep
  in
  (* Equal-latency duplicates: keep the smaller area (the first after the
     sort). *)
  let rec dedup = function
    | a :: (b :: _ as rest) when a.latency = b.latency -> a :: dedup (List.filter (fun q -> q.latency <> a.latency) rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup keep

let pareto_frontier ?unrolls b = pareto (sweep ?unrolls b)
