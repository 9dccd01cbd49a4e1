(* The MPEG-2 encoder case study (paper §6), end to end:

   1. the functional behavioral encoder on a short synthetic sequence
      (the computation the SoC's 26 processes implement);
   2. the characterized system: Table 1 and the per-process Pareto sets;
   3. the system-level Pareto frontier (the Liu-Carloni step), picking the
      paper's M1 (fastest) and an M2 analog (CT ratio ~1.89);
   4. reordering alone on M1 (the paper's 5%-for-free experiment);
   5. the two design-space explorations of Fig. 6 (timing optimization and
      area recovery).

   Run with: dune exec examples/mpeg2_dse.exe *)

module System = Ermes_slm.System
module Soc = Ermes_mpeg2.Soc
module Frame = Ermes_support.Frame
module Encoder = Ermes_support.Encoder
module Perf = Ermes_core.Perf
module Explore = Ermes_core.Explore
module Frontier = Ermes_core.Frontier
module Ratio = Ermes_tmg.Ratio

let hr title = Format.printf "@.== %s ==@." title

let () =
  hr "behavioral encoder (the computation being modelled)";
  let frames = List.init 8 (fun i -> Frame.synthetic ~width:96 ~height:64 ~index:i) in
  let cfg = { Encoder.default_config with target_bits_per_frame = Some 12_000 } in
  let enc = Encoder.encode ~config:cfg frames in
  Format.printf "frame  type  bits   qscale  PSNR(dB)  |mv|@.";
  List.iter
    (fun (s : Encoder.frame_stats) ->
      Format.printf "  %2d    %s  %6d    %2d     %5.1f    %4.1f@." s.Encoder.frame_index
        (if s.Encoder.intra then "I" else "P")
        s.Encoder.bits s.Encoder.qscale_used s.Encoder.psnr s.Encoder.mean_vector_magnitude)
    enc.Encoder.stats;
  let decoded =
    Encoder.decode ~config:cfg ~width:96 ~height:64 ~frames:8 enc.Encoder.bitstream
  in
  Format.printf "decoder bit-exact vs encoder reconstruction: %b@."
    (List.for_all2 (fun a b -> Frame.psnr a b = infinity) decoded enc.Encoder.reconstructed);

  hr "characterized SoC (Table 1)";
  let sys = Soc.build () in
  let s = Soc.stats sys in
  Format.printf "processes %d (+2 testbench)  channels %d  pareto points %d@."
    s.Soc.worker_processes s.Soc.channels s.Soc.pareto_points;
  Format.printf "channel latencies %d..%d cycles  order combinations %.3g@."
    s.Soc.min_channel_latency s.Soc.max_channel_latency s.Soc.order_combinations;

  hr "system-level Pareto frontier (Liu-Carloni preprocessing)";
  let frontier = Frontier.system_pareto sys in
  List.iter
    (fun (p : Frontier.point) ->
      Format.printf "  CT=%-9s area=%6.3f mm2@." (Ratio.to_string p.Frontier.cycle_time)
        p.Frontier.area)
    frontier;
  let m1 = Frontier.fastest frontier in
  let m2 = Frontier.at_cycle_time_ratio frontier (3597. /. 1906.) in
  Format.printf "M1 (fastest):  CT=%s area=%.3f@." (Ratio.to_string m1.Frontier.cycle_time) m1.Frontier.area;
  Format.printf "M2 (trade-off): CT=%s area=%.3f (CT ratio %.2f; paper 1.89)@."
    (Ratio.to_string m2.Frontier.cycle_time) m2.Frontier.area
    (Ratio.to_float m2.Frontier.cycle_time /. Ratio.to_float m1.Frontier.cycle_time);

  hr "reordering alone on M1 (paper: 5% CT improvement, no area change)";
  Frontier.select sys m1;
  let before, after = Explore.reorder_only sys in
  Format.printf "CT %s -> %s (%.1f%% improvement), area unchanged at %.3f mm2@."
    (Ratio.to_string before) (Ratio.to_string after)
    (100. *. (1. -. (Ratio.to_float after /. Ratio.to_float before)))
    (System.total_area sys);

  hr "Fig. 6 left: timing optimization from M2";
  let sys = Soc.build () in
  Frontier.select sys m2;
  let tct = int_of_float (Ratio.to_float m2.Frontier.cycle_time *. 2000. /. 3597.) in
  let trace = Explore.run ~tct sys in
  Format.printf "%a@." Explore.pp_trace trace;
  Format.printf "speed-up vs M2: %.2fx; area vs M2: %+.1f%%@."
    (Ratio.to_float m2.Frontier.cycle_time /. Ratio.to_float (Explore.final_cycle_time trace))
    (100. *. ((Explore.final_area trace /. m2.Frontier.area) -. 1.));

  hr "Fig. 6 right: area recovery from M2";
  let sys = Soc.build () in
  Frontier.select sys m2;
  let tct = int_of_float (Ratio.to_float m2.Frontier.cycle_time *. 4000. /. 3597.) in
  let trace = Explore.run ~tct sys in
  Format.printf "%a@." Explore.pp_trace trace;
  Format.printf "area vs M2: %+.1f%%; CT vs M2: %+.1f%%@."
    (100. *. ((Explore.final_area trace /. m2.Frontier.area) -. 1.))
    (100.
    *. ((Ratio.to_float (Explore.final_cycle_time trace) /. Ratio.to_float m2.Frontier.cycle_time) -. 1.))
