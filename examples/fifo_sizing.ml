(* Buffer sizing: the alternative the paper's related-work section contrasts
   with statement reordering ("communication channels based on FIFOs, which
   must be carefully sized").

   Replacing the blocking rendezvous channels with bounded FIFOs decouples
   producers from consumers: a put completes as soon as a slot is free, so
   the cross-coupled waits that a bad statement order induces disappear — at
   the price of buffer storage. This example measures that trade-off on the
   paper's motivating example:

     1. the rendezvous baseline under the suboptimal and the deadlocking
        statement orders;
     2. the throughput-vs-depth curve with every channel buffered;
     3. selective sizing — buffering only the channels on the critical
        cycle, which is how a designer would actually spend the area;
     4. the comparison the paper advocates: statement reordering gets most
        of the benefit for free.

   Run with: dune exec examples/fifo_sizing.exe *)

module System = Ermes_slm.System
module Motivating = Ermes_support.Motivating
module Sim = Ermes_slm.Sim
module Perf = Ermes_core.Perf
module Order = Ermes_core.Order
module Ratio = Ermes_tmg.Ratio

let ct_string sys =
  match Perf.analyze sys with
  | Ok a -> Ratio.to_string a.Perf.cycle_time
  | Error (Perf.Deadlock _) -> "deadlock"
  | Error Perf.No_cycle -> "-"

let buffer_all depth sys =
  List.iter (fun c -> System.set_channel_kind sys c (System.Fifo depth)) (System.channels sys);
  sys

let total_slots sys =
  List.fold_left
    (fun acc c ->
      match System.channel_kind sys c with
      | System.Rendezvous | System.Handshake _ -> acc
      | System.Fifo k -> acc + k
      | System.Multi_rate { depth; _ } -> acc + depth)
    0 (System.channels sys)

let () =
  Format.printf "== baselines (rendezvous channels) ==@.";
  Format.printf "  suboptimal order:  CT %s@." (ct_string (Motivating.suboptimal ()));
  Format.printf "  deadlocking order: CT %s@." (ct_string (Motivating.deadlocking ()));
  Format.printf "  optimal order:     CT %s@." (ct_string (Motivating.optimal ()));

  Format.printf "@.== uniform FIFO sizing under the suboptimal order ==@.";
  Format.printf "  depth   CT (analysis)   CT (simulation)   buffer slots@.";
  List.iter
    (fun depth ->
      let sys = buffer_all depth (Motivating.suboptimal ()) in
      let sim =
        match Sim.steady_cycle_time ~rounds:96 sys with
        | Ok (Sim.Period m) -> Ratio.to_string m
        | Ok Sim.No_period -> "?"
        | Ok (Sim.Deadlock _) -> "deadlock"
        | Ok (Sim.Timeout _) -> "timeout"
        | Error e -> e
      in
      Format.printf "   %2d      %-12s    %-12s      %d@." depth (ct_string sys) sim
        (total_slots sys))
    [ 1; 2; 4; 8 ];

  Format.printf "@.== even the deadlocking order becomes live with buffers ==@.";
  let sys = buffer_all 1 (Motivating.deadlocking ()) in
  Format.printf "  deadlocking order + depth-1 FIFOs: CT %s@." (ct_string sys);

  Format.printf "@.== selective sizing: buffer only the critical channels ==@.";
  let sys = Motivating.suboptimal () in
  (match Perf.analyze sys with
   | Ok a ->
     Format.printf "  critical channels under rendezvous: %s@."
       (String.concat " " (List.map (System.channel_name sys) a.Perf.critical_channels));
     List.iter
       (fun c -> System.set_channel_kind sys c (System.Fifo 1))
       a.Perf.critical_channels;
     Format.printf "  buffering just those %d channels: CT %s (%d slots)@."
       (List.length a.Perf.critical_channels)
       (ct_string sys) (total_slots sys)
   | Error _ -> assert false);

  Format.printf "@.== automated sizing (Buffer_opt): minimal slots to a target ==@.";
  let sys = Motivating.suboptimal () in
  let res = Ermes_core.Buffer_opt.size ~tct:11 sys in
  List.iter
    (fun (s : Ermes_core.Buffer_opt.step) ->
      Format.printf "  buffer %s (depth %d): CT %s@."
        (System.channel_name sys s.Ermes_core.Buffer_opt.channel)
        s.Ermes_core.Buffer_opt.new_depth
        (Ratio.to_string s.Ermes_core.Buffer_opt.cycle_time))
    res.Ermes_core.Buffer_opt.steps;
  Format.printf "  %d slots reach CT %s — the greedy sizing beats uniform depth-1 (8 slots)@."
    res.Ermes_core.Buffer_opt.slots_added
    (Ratio.to_string res.Ermes_core.Buffer_opt.final_cycle_time);

  Format.printf "@.== the paper's alternative: reorder the statements instead ==@.";
  let sys = Motivating.suboptimal () in
  ignore (Order.apply sys);
  Format.printf "  reordered, zero buffers: CT %s@." (ct_string sys);
  Format.printf "@.Reordering recovers most of the serialization for free; buffers go@.";
  Format.printf "further (they also add pipeline slack) but cost real storage — the@.";
  Format.printf "reason the paper optimizes the order first.@."
