module System = Ermes_slm.System
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Liveness = Ermes_tmg.Liveness
module Ratio = Ermes_tmg.Ratio

type analysis = {
  cycle_time : Ratio.t;
  critical_processes : System.process list;
  critical_channels : System.channel list;
  critical_cycle : string list;
  critical_delay : int;
  critical_tokens : int;
}

type deadlock = {
  dead_processes : System.process list;
  dead_channels : System.channel list;
  dead_cycle : string list;
}

type failure = Deadlock of deadlock | No_cycle

let of_howard mapping outcome =
  let tmg = mapping.To_tmg.tmg in
  match outcome with
  | Ok r ->
    Ok
      {
        cycle_time = r.Csr.cycle_time;
        critical_processes =
          To_tmg.processes_on_cycle mapping r.Csr.critical_transitions;
        critical_channels =
          To_tmg.channels_on_cycle mapping r.Csr.critical_transitions;
        critical_cycle =
          List.map (Tmg.transition_name tmg) r.Csr.critical_transitions;
        critical_delay =
          List.fold_left (fun acc t -> acc + Tmg.delay tmg t) 0
            r.Csr.critical_transitions;
        critical_tokens =
          List.fold_left (fun acc p -> acc + Tmg.tokens tmg p) 0
            r.Csr.critical_places;
      }
  | Error (Csr.Deadlock dc) ->
    let ts = dc.Liveness.dead_transitions in
    Error
      (Deadlock
         {
           dead_processes = To_tmg.processes_on_cycle mapping ts;
           dead_channels = To_tmg.channels_on_cycle mapping ts;
           dead_cycle = List.map (Tmg.transition_name tmg) ts;
         })
  | Error Csr.No_cycle -> Error No_cycle

let analyze sys =
  let mapping = To_tmg.build sys in
  of_howard mapping (Csr.cycle_time mapping.To_tmg.tmg)

let cycle_time_exn sys =
  match analyze sys with
  | Ok a -> a.cycle_time
  | Error (Deadlock d) ->
    failwith
      (Printf.sprintf "deadlock on cycle [%s]" (String.concat " " d.dead_cycle))
  | Error No_cycle -> failwith "system TMG has no cycle"

let throughput a = Ratio.inv a.cycle_time

type slack = Bounded of int | Unbounded

let pp_slack ppf = function
  | Bounded s -> Format.fprintf ppf "%d" s
  | Unbounded -> Format.fprintf ppf "inf"

(* Maximum reduced cost of a closed walk through [start], where reduced costs
   are den*delay - num*tokens <= 0 around every cycle (guaranteed at the
   exact cycle time). Bellman-Ford-style longest-walk relaxation from
   [start]; with no positive cycle it converges within |T| rounds. Returns
   None when no cycle passes through [start]. *)
let max_cycle_cost_through tmg ~num ~den start =
  let n = Tmg.transition_count tmg in
  let neg = min_int / 4 in
  let d = Array.make n neg in
  let relax_round () =
    let changed = ref false in
    List.iter
      (fun p ->
        let u = Tmg.place_src tmg p and v = Tmg.place_dst tmg p in
        let base = if u = start then 0 else d.(u) in
        if base > neg then begin
          let c = (den * Tmg.delay tmg v) - (num * Tmg.tokens tmg p) in
          if base + c > d.(v) then begin
            d.(v) <- base + c;
            changed := true
          end
        end)
      (Tmg.places tmg);
    !changed
  in
  let rec go i = if i = 0 then () else if relax_round () then go (i - 1) else () in
  go (n + 1);
  if d.(start) > neg then Some d.(start) else None

let slack_of_transitions sys transitions_of objects what =
  let mapping = To_tmg.build sys in
  let tmg = mapping.To_tmg.tmg in
  match Csr.cycle_time tmg with
  | Error _ -> failwith (Printf.sprintf "Perf.%s: system deadlocks or has no cycle" what)
  | Ok r ->
    let num = Ratio.num r.Csr.cycle_time and den = Ratio.den r.Csr.cycle_time in
    List.map
      (fun x ->
        (* A latency bump of s raises the delay of {e every} unfolded
           instance, so a cycle threading k of the object's n instances gains
           den*s*k <= den*s*n reduced cost. Dividing by n keeps the bound
           sound at any unfolding; at unit rates n = 1 and this is exact. *)
        let ts = transitions_of mapping x in
        let n = Array.length ts in
        Array.fold_left
          (fun acc t ->
            match (acc, max_cycle_cost_through tmg ~num ~den t) with
            | acc, None -> acc
            | Unbounded, Some worst -> Bounded (-worst / (den * n))
            | Bounded s, Some worst -> Bounded (min s (-worst / (den * n))))
          Unbounded ts
        |> fun slack -> (x, slack))
      objects

let latency_slack sys =
  slack_of_transitions sys
    (fun m p -> m.To_tmg.compute_transition.(p))
    (System.processes sys) "latency_slack"

let channel_slack sys =
  slack_of_transitions sys
    (fun m c -> m.To_tmg.channel_entry.(c))
    (System.channels sys) "channel_slack"

let pp_analysis sys ppf a =
  Format.fprintf ppf
    "@[<v>cycle time %a (throughput %a)@,critical processes: %s@,critical channels: %s@]"
    Ratio.pp a.cycle_time Ratio.pp (throughput a)
    (String.concat " " (List.map (System.process_name sys) a.critical_processes))
    (String.concat " " (List.map (System.channel_name sys) a.critical_channels))

let pp_failure sys ppf = function
  | No_cycle -> Format.fprintf ppf "no cycle in the system TMG"
  | Deadlock d ->
    (* A label with an empty list ends at its colon, not in a space. *)
    let names name xs = String.concat "" (List.map (fun x -> " " ^ name x) xs) in
    Format.fprintf ppf "@[<v>deadlock: token-free cycle [%s]@,processes:%s@,channels:%s@]"
      (String.concat " " d.dead_cycle)
      (names (System.process_name sys) d.dead_processes)
      (names (System.channel_name sys) d.dead_channels)
