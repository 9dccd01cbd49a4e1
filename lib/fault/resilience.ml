module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio
module Perf = Ermes_core.Perf
module Incremental = Ermes_core.Incremental

type entry = {
  slack : Perf.slack;
  verified : bool option;
}

type t = {
  cycle_time : Ratio.t;
  processes : (System.process * entry) list;
  channels : (System.channel * entry) list;
}

(* A slack of [s] is tight iff slowing the component by [s] keeps the cycle
   time and by [s + 1] degrades it. Each probe is one warm Howard run on the
   session's TMG with a transient delay edit — no faulted copy, no rebuild
   ([Incremental.probe] matches [Fault.apply]'s clamp semantics exactly). *)
let probe session base probe_of s =
  let ct delta =
    match Incremental.probe session [ probe_of delta ] with
    | Ok a -> Some a.Perf.cycle_time
    | Error _ -> None
  in
  let keeps =
    s = 0 || (match ct s with Some c -> Ratio.equal c base | None -> false)
  in
  let degrades = match ct (s + 1) with Some c -> Ratio.(base < c) | None -> false in
  keeps && degrades

let analyze ?(verify = false) sys =
  let session = Incremental.create sys in
  match Incremental.analyze session with
  | Error f -> Error (Format.asprintf "%a" (Perf.pp_failure sys) f)
  | Ok a ->
    let base = a.Perf.cycle_time in
    let entry probe_of = function
      | Perf.Unbounded -> { slack = Perf.Unbounded; verified = None }
      | Perf.Bounded s ->
        let verified =
          if verify then Some (probe session base probe_of s) else None
        in
        { slack = Perf.Bounded s; verified }
    in
    let processes =
      List.map
        (fun (p, s) ->
          (p, entry (fun delta -> Incremental.Slow_process (p, delta)) s))
        (Perf.latency_slack sys)
    in
    let channels =
      List.map
        (fun (c, s) ->
          (c, entry (fun delta -> Incremental.Jitter_channel (c, delta)) s))
        (Perf.channel_slack sys)
    in
    Ok { cycle_time = base; processes; channels }

let classify ~threshold e =
  match e.slack with
  | Perf.Bounded s when s <= threshold -> `Fragile
  | Perf.Bounded _ | Perf.Unbounded -> `Robust

let fragile sys ~threshold r =
  let procs = List.map (fun (p, e) -> (System.process_name sys p, e)) r.processes in
  let chans = List.map (fun (c, e) -> (System.channel_name sys c, e)) r.channels in
  List.filter (fun (_, e) -> classify ~threshold e = `Fragile) (procs @ chans)
  |> List.sort (fun (_, a) (_, b) ->
         match (a.slack, b.slack) with
         | Perf.Bounded x, Perf.Bounded y -> compare x y
         | Perf.Bounded _, Perf.Unbounded -> -1
         | Perf.Unbounded, Perf.Bounded _ -> 1
         | Perf.Unbounded, Perf.Unbounded -> 0)

let pp sys ~threshold ppf r =
  let tag e = match classify ~threshold e with `Fragile -> "fragile" | `Robust -> "robust" in
  let mark e =
    match e.verified with
    | Some true -> " (verified)"
    | Some false -> " (VERIFICATION FAILED)"
    | None -> ""
  in
  Format.fprintf ppf "@[<v>cycle time %a; fragility threshold %d@,processes:" Ratio.pp
    r.cycle_time threshold;
  List.iter
    (fun (p, e) ->
      Format.fprintf ppf "@,  %-16s slack %a  %s%s" (System.process_name sys p)
        Perf.pp_slack e.slack (tag e) (mark e))
    r.processes;
  Format.fprintf ppf "@,channels:";
  List.iter
    (fun (c, e) ->
      Format.fprintf ppf "@,  %-16s slack %a  %s%s" (System.channel_name sys c)
        Perf.pp_slack e.slack (tag e) (mark e))
    r.channels;
  Format.fprintf ppf "@]"
