module Frame = Ermes_support.Frame
module Dct = Ermes_support.Dct
module Quant = Ermes_support.Quant
module Zigzag = Ermes_support.Zigzag
module Rle = Ermes_support.Rle
module Vlc = Ermes_support.Vlc
module Bitstream = Ermes_support.Bitstream
module Motion = Ermes_support.Motion
module Encoder = Ermes_support.Encoder
module Behaviors = Ermes_mpeg2.Behaviors
module Soc = Ermes_mpeg2.Soc
module System = Ermes_slm.System
module Perf = Ermes_core.Perf

(* ---- frame ----------------------------------------------------------------- *)

let test_frame_basics () =
  let f = Frame.create ~width:32 ~height:16 in
  Frame.set f ~x:3 ~y:2 300;
  Alcotest.(check int) "clamped store" 255 (Frame.get f ~x:3 ~y:2);
  Alcotest.(check int) "border clamp x" (Frame.get f ~x:0 ~y:0) (Frame.get f ~x:(-5) ~y:0);
  Alcotest.check_raises "bad size" (Invalid_argument "Frame.create: dimensions must be positive multiples of 16")
    (fun () -> ignore (Frame.create ~width:30 ~height:16))

let test_frame_synthetic_deterministic () =
  let a = Frame.synthetic ~width:64 ~height:32 ~index:3 in
  let b = Frame.synthetic ~width:64 ~height:32 ~index:3 in
  Alcotest.(check (float 0.)) "identical" infinity (Frame.psnr a b);
  let c = Frame.synthetic ~width:64 ~height:32 ~index:4 in
  Alcotest.(check bool) "consecutive frames differ" true (Frame.mean_abs_diff a c > 0.)

let test_frame_psnr_properties () =
  let a = Frame.synthetic ~width:32 ~height:32 ~index:0 in
  let b = Frame.create ~width:32 ~height:32 in
  Alcotest.(check bool) "finite psnr" true (Float.is_finite (Frame.psnr a b));
  Alcotest.(check bool) "positive mad" true (Frame.mean_abs_diff a b > 0.)

(* ---- dct ------------------------------------------------------------------- *)

let test_dct_constant_block () =
  (* A constant block concentrates all energy in the DC coefficient. *)
  let block = Array.make 64 100 in
  let coeffs = Dct.forward block in
  Alcotest.(check (float 1e-6)) "dc" 800. coeffs.(0);
  Array.iteri (fun i c -> if i > 0 then Alcotest.(check (float 1e-6)) "ac zero" 0. c) coeffs

let test_dct_roundtrip () =
  let block = Array.init 64 (fun i -> ((i * 37) mod 256) - 128) in
  let back = Dct.inverse (Dct.forward block) in
  Array.iteri
    (fun i v -> Alcotest.(check bool) "roundtrip within 1" true (abs (v - block.(i)) <= 1))
    back

let prop_dct_roundtrip =
  Helpers.qtest ~count:200 "DCT inverse . forward = id (within rounding)"
    QCheck2.Gen.(array_size (QCheck2.Gen.return 64) (int_range (-255) 255))
    (fun block ->
      let back = Dct.inverse (Dct.forward block) in
      Array.for_all2 (fun a b -> abs (a - b) <= 1) back block)

let prop_dct_linearity =
  Helpers.qtest ~count:100 "DCT is linear"
    QCheck2.Gen.(pair (array_size (return 64) (int_range (-100) 100))
                   (array_size (return 64) (int_range (-100) 100)))
    (fun (a, b) ->
      let sum = Array.init 64 (fun i -> a.(i) + b.(i)) in
      let fa = Dct.forward a and fb = Dct.forward b and fs = Dct.forward sum in
      Array.for_all2 (fun s ab -> Float.abs (s -. ab) < 1e-6)
        fs (Array.init 64 (fun i -> fa.(i) +. fb.(i))))

(* ---- quant ----------------------------------------------------------------- *)

let test_quant_zero_preserved () =
  let z = Array.make 64 0 in
  Alcotest.(check bool) "zeros stay zero" true (Array.for_all (( = ) 0) (Quant.quantize ~qscale:4 z))

let prop_quant_error_bounded =
  Helpers.qtest ~count:200 "dequantize . quantize error is at most half a step"
    QCheck2.Gen.(pair (int_range 1 31) (array_size (return 64) (int_range (-2048) 2047)))
    (fun (qscale, coeffs) ->
      let lv = Quant.quantize ~qscale coeffs in
      let back = Quant.dequantize ~qscale lv in
      let ok = ref true in
      Array.iteri
        (fun i orig ->
          let step = Quant.intra_matrix.(i) * qscale in
          if 2 * abs (orig - back.(i)) > step + 1 then ok := false)
        coeffs;
      !ok)

let prop_quant_monotone_sparsity =
  Helpers.qtest ~count:100 "coarser qscale never increases nonzero count"
    QCheck2.Gen.(array_size (return 64) (int_range (-2048) 2047))
    (fun coeffs ->
      let nonzeros q =
        Array.fold_left (fun acc l -> if l <> 0 then acc + 1 else acc) 0
          (Quant.quantize ~qscale:q coeffs)
      in
      nonzeros 16 <= nonzeros 2)

(* ---- zigzag ----------------------------------------------------------------- *)

let test_zigzag_prefix () =
  Alcotest.(check (list int)) "standard prefix" [ 0; 1; 8; 16; 9; 2; 3; 10 ]
    (Array.to_list (Array.sub Zigzag.order 0 8))

let test_zigzag_permutation () =
  Alcotest.(check (list int)) "permutation of 0..63"
    (List.init 64 Fun.id)
    (List.sort compare (Array.to_list Zigzag.order))

let prop_zigzag_roundtrip =
  Helpers.qtest "unscan . scan = id" QCheck2.Gen.(array_size (return 64) int)
    (fun block -> Zigzag.unscan (Zigzag.scan block) = block)

(* ---- rle / vlc / bitstream ---------------------------------------------------- *)

let test_rle_example () =
  let scanned = Array.make 64 0 in
  scanned.(0) <- 5;
  scanned.(3) <- -2;
  let pairs = Rle.encode scanned in
  Alcotest.(check int) "two pairs" 2 (List.length pairs);
  (match pairs with
   | [ a; b ] ->
     Alcotest.(check (pair int int)) "first" (0, 5) (a.Rle.run, a.Rle.level);
     Alcotest.(check (pair int int)) "second" (2, -2) (b.Rle.run, b.Rle.level)
   | _ -> Alcotest.fail "shape");
  Alcotest.(check bool) "decode restores" true (Rle.decode pairs = scanned)

let prop_rle_roundtrip =
  Helpers.qtest ~count:200 "rle decode . encode = id"
    QCheck2.Gen.(array_size (return 64) (int_range (-40) 40))
    (fun scanned -> Rle.decode (Rle.encode scanned) = scanned)

let test_bitstream_roundtrip () =
  let w = Bitstream.Writer.create () in
  Bitstream.Writer.put_bits w ~width:5 19;
  Bitstream.Writer.put_bit w 1;
  Bitstream.Writer.put_bits w ~width:12 3000;
  let r = Bitstream.Reader.of_writer w in
  Alcotest.(check int) "bits 5" 19 (Bitstream.Reader.get_bits r ~width:5);
  Alcotest.(check int) "bit" 1 (Bitstream.Reader.get_bit r);
  Alcotest.(check int) "bits 12" 3000 (Bitstream.Reader.get_bits r ~width:12);
  Alcotest.(check int) "exhausted" 0 (Bitstream.Reader.bits_remaining r);
  Alcotest.check_raises "past end" (Invalid_argument "Bitstream.get_bit: past end of stream")
    (fun () -> ignore (Bitstream.Reader.get_bit r))

let test_exp_golomb_small_values () =
  let w = Bitstream.Writer.create () in
  List.iter (Vlc.write_ue w) [ 0; 1; 2; 3; 4 ];
  (* ue(0)=1, ue(1)=010, ue(2)=011, ue(3)=00100, ue(4)=00101: 1+3+3+5+5 = 17 bits *)
  Alcotest.(check int) "ue widths" 17 (Bitstream.Writer.bit_length w);
  let r = Bitstream.Reader.of_writer w in
  List.iter (fun v -> Alcotest.(check int) "ue value" v (Vlc.read_ue r)) [ 0; 1; 2; 3; 4 ]

let prop_ue_roundtrip =
  Helpers.qtest ~count:200 "unsigned exp-golomb round-trips" QCheck2.Gen.(list (int_range 0 100000))
    (fun vs ->
      let w = Bitstream.Writer.create () in
      List.iter (Vlc.write_ue w) vs;
      let r = Bitstream.Reader.of_writer w in
      List.for_all (fun v -> Vlc.read_ue r = v) vs)

let prop_se_roundtrip =
  Helpers.qtest ~count:200 "signed exp-golomb round-trips" QCheck2.Gen.(list (int_range (-50000) 50000))
    (fun vs ->
      let w = Bitstream.Writer.create () in
      List.iter (Vlc.write_se w) vs;
      let r = Bitstream.Reader.of_writer w in
      List.for_all (fun v -> Vlc.read_se r = v) vs)

let prop_vlc_block_roundtrip_and_cost =
  Helpers.qtest ~count:200 "block coding round-trips and encoded_bits is exact"
    QCheck2.Gen.(array_size (return 64) (int_range (-40) 40))
    (fun scanned ->
      let pairs = Rle.encode scanned in
      let w = Bitstream.Writer.create () in
      Vlc.write_block w pairs;
      let predicted = Vlc.encoded_bits pairs in
      let r = Bitstream.Reader.of_writer w in
      let pairs' = Vlc.read_block r in
      Bitstream.Writer.bit_length w = predicted && pairs' = pairs)

(* ---- motion ------------------------------------------------------------------- *)

let test_motion_finds_pure_translation () =
  (* Current = reference shifted by (3, -2): search must find it exactly
     (interior block, away from borders). *)
  let reference = Frame.synthetic ~width:64 ~height:64 ~index:0 in
  let current = Frame.create ~width:64 ~height:64 in
  for y = 0 to 63 do
    for x = 0 to 63 do
      Frame.set current ~x ~y (Frame.get reference ~x:(x + 3) ~y:(y - 2))
    done
  done;
  let v = Motion.search ~reference ~current ~x0:24 ~y0:24 ~size:16 ~range:7 in
  Alcotest.(check (pair int int)) "vector" (3, -2) (v.Motion.dx, v.Motion.dy);
  Alcotest.(check int) "sad zero" 0 v.Motion.sad

let test_motion_zero_bias () =
  (* On identical frames the zero vector must win despite SAD ties. *)
  let f = Frame.synthetic ~width:32 ~height:32 ~index:0 in
  let v = Motion.search ~reference:f ~current:f ~x0:8 ~y0:8 ~size:8 ~range:4 in
  Alcotest.(check (pair int int)) "zero vector" (0, 0) (v.Motion.dx, v.Motion.dy)

let test_motion_compensate_consistent () =
  let reference = Frame.synthetic ~width:32 ~height:32 ~index:1 in
  let v = { Motion.dx = 2; dy = 1; sad = 0 } in
  let block = Motion.compensate ~reference ~x0:8 ~y0:8 ~size:8 v in
  Alcotest.(check int) "sample" (Frame.get reference ~x:12 ~y:10) block.((2 * 8) + 2)

(* ---- encoder ------------------------------------------------------------------- *)

let frames n = List.init n (fun i -> Frame.synthetic ~width:64 ~height:48 ~index:i)

let test_encoder_decoder_bit_exact () =
  let fs = frames 5 in
  let result = Encoder.encode fs in
  let decoded =
    Encoder.decode ~width:64 ~height:48 ~frames:5 result.Encoder.bitstream
  in
  List.iter2
    (fun d r -> Alcotest.(check (float 0.)) "decoder = encoder reconstruction" infinity (Frame.psnr d r))
    decoded result.Encoder.reconstructed

let test_encoder_quality_improves_with_finer_qscale () =
  let f = [ Frame.synthetic ~width:64 ~height:48 ~index:0 ] in
  let psnr q =
    (List.hd (Encoder.encode ~config:{ Encoder.default_config with initial_qscale = q } f).Encoder.stats).Encoder.psnr
  in
  Alcotest.(check bool) "q1 beats q16" true (psnr 1 > psnr 16)

let test_encoder_bits_decrease_with_coarser_qscale () =
  let f = [ Frame.synthetic ~width:64 ~height:48 ~index:0 ] in
  let bits q =
    (List.hd (Encoder.encode ~config:{ Encoder.default_config with initial_qscale = q } f).Encoder.stats).Encoder.bits
  in
  Alcotest.(check bool) "coarser is smaller" true (bits 16 < bits 1)

let test_encoder_p_frames_smaller_than_intra () =
  (* Slow-moving synthetic content: P frames should usually cost fewer bits
     than the I frame. *)
  let result = Encoder.encode (frames 4) in
  match result.Encoder.stats with
  | i :: ps when i.Encoder.intra ->
    let avg_p =
      List.fold_left (fun acc s -> acc + s.Encoder.bits) 0 ps / List.length ps
    in
    Alcotest.(check bool) "P cheaper than I" true (avg_p < i.Encoder.bits)
  | _ -> Alcotest.fail "expected I frame first"

let test_encoder_gop_structure () =
  let cfg = { Encoder.default_config with gop = 3 } in
  let result = Encoder.encode ~config:cfg (frames 7) in
  List.iteri
    (fun i s -> Alcotest.(check bool) "intra every 3" true (s.Encoder.intra = (i mod 3 = 0)))
    result.Encoder.stats

let test_encoder_rate_control_converges () =
  let target = 6000 in
  let cfg = { Encoder.default_config with target_bits_per_frame = Some target; initial_qscale = 1 } in
  let result = Encoder.encode ~config:cfg (frames 10) in
  (* qscale must have risen from 1 to throttle the bitrate. *)
  let last = List.nth result.Encoder.stats 9 in
  Alcotest.(check bool) "qscale adapted" true (last.Encoder.qscale_used >= 1);
  let tail = List.filteri (fun i _ -> i >= 5) result.Encoder.stats in
  let avg = List.fold_left (fun acc s -> acc + s.Encoder.bits) 0 tail / List.length tail in
  Alcotest.(check bool) "steady bits near target" true (avg < 3 * target)

let test_macroblock_count () =
  Alcotest.(check int) "352x240 has 330 macroblocks" 330
    (Encoder.macroblocks ~width:352 ~height:240)

let test_encoder_invalid_args () =
  Alcotest.check_raises "empty" (Invalid_argument "Encoder.encode: empty sequence")
    (fun () -> ignore (Encoder.encode []));
  let f = Frame.synthetic ~width:32 ~height:32 ~index:0 in
  let g = Frame.synthetic ~width:64 ~height:32 ~index:0 in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Encoder.encode: frame size mismatch")
    (fun () -> ignore (Encoder.encode [ f; g ]));
  Alcotest.check_raises "gop" (Invalid_argument "Encoder.encode: gop must be >= 1")
    (fun () -> ignore (Encoder.encode ~config:{ Encoder.default_config with gop = 0 } [ f ]));
  Alcotest.check_raises "qscale" (Invalid_argument "Encoder.encode: initial_qscale out of range")
    (fun () -> ignore (Encoder.encode ~config:{ Encoder.default_config with initial_qscale = 0 } [ f ]))

let test_rle_errors () =
  Alcotest.check_raises "overflow" (Invalid_argument "Rle.decode: overflow") (fun () ->
      ignore (Rle.decode [ { Rle.run = 63; level = 1 }; { Rle.run = 1; level = 1 } ]));
  Alcotest.check_raises "zero level" (Invalid_argument "Rle.decode: zero level") (fun () ->
      ignore (Rle.decode [ { Rle.run = 0; level = 0 } ]))

let test_vlc_empty_block () =
  let w = Bitstream.Writer.create () in
  Vlc.write_block w [];
  let r = Bitstream.Reader.of_writer w in
  Alcotest.(check bool) "empty round-trips" true (Vlc.read_block r = []);
  (* EOB is ue(64) = 13 bits. *)
  Alcotest.(check int) "eob cost" 13 (Vlc.encoded_bits [])

let test_frame_border_block () =
  let f = Frame.synthetic ~width:32 ~height:32 ~index:0 in
  let block = Frame.block f ~x0:(-4) ~y0:(-4) ~size:8 in
  (* The out-of-frame corner replicates pixel (0,0). *)
  Alcotest.(check int) "clamped corner" (Frame.get f ~x:0 ~y:0) block.(0)

(* ---- behaviors / soc -------------------------------------------------------------- *)

let test_behaviors_work_split () =
  (* The uneven slices and lanes cover the frame exactly. *)
  Alcotest.(check int) "ME slices cover 330 MBs" 330
    (Array.fold_left ( + ) 0 Behaviors.me_slice_mbs);
  Alcotest.(check int) "lanes cover 1320 blocks" 1320
    (Array.fold_left ( + ) 0 Behaviors.lane_blocks);
  (* Asymmetric on purpose. *)
  Alcotest.(check bool) "slices uneven" true
    (Behaviors.me_slice_mbs.(0) <> Behaviors.me_slice_mbs.(3));
  Alcotest.(check bool) "lanes uneven" true
    (Behaviors.lane_blocks.(0) <> Behaviors.lane_blocks.(2))

let test_behaviors_all_present () =
  Alcotest.(check int) "26 behaviors" 26 (List.length Behaviors.all);
  List.iter
    (fun (name, b) ->
      Alcotest.(check bool) (name ^ " nonempty") true (Ermes_hls.Behavior.op_count b > 0))
    Behaviors.all

let soc = lazy (Soc.build ())

let test_soc_table1 () =
  (* Paper Table 1: 26 processes, 60 channels, image 352x240, channel
     latencies spanning 1..5280. *)
  let sys = Lazy.force soc in
  let s = Soc.stats sys in
  Alcotest.(check int) "26 worker processes" 26 s.Soc.worker_processes;
  Alcotest.(check int) "60 channels" 60 s.Soc.channels;
  Alcotest.(check int) "28 with testbench" 28 s.Soc.processes;
  Alcotest.(check int) "min channel latency 1" 1 s.Soc.min_channel_latency;
  Alcotest.(check int) "max channel latency 5280" 5280 s.Soc.max_channel_latency;
  Alcotest.(check bool) "on the order of 171 Pareto points" true
    (s.Soc.pareto_points >= 100 && s.Soc.pareto_points <= 400)

let test_soc_valid_and_live () =
  let sys = Lazy.force soc in
  (match System.validate sys with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun select ->
      select sys;
      match Perf.analyze sys with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "deadlock under conservative orders")
    [ Soc.select_fastest; Soc.select_median; Soc.select_smallest ]

let test_soc_selection_ordering () =
  let sys = Lazy.force soc in
  Soc.select_fastest sys;
  let ct_fast = Ermes_core.Perf.cycle_time_exn sys in
  let area_fast = System.total_area sys in
  Soc.select_smallest sys;
  let ct_small = Ermes_core.Perf.cycle_time_exn sys in
  let area_small = System.total_area sys in
  Alcotest.(check bool) "fastest is faster" true Ermes_tmg.Ratio.(ct_fast < ct_small);
  Alcotest.(check bool) "smallest is smaller" true (area_small < area_fast)

let test_soc_feedback_hubs_puts_first () =
  let sys = Lazy.force soc in
  List.iter
    (fun name ->
      let p = Option.get (System.find_process sys name) in
      Alcotest.(check bool) (name ^ " puts first") true (System.phase sys p = System.Puts_first))
    [ "frame_store"; "rate_ctrl" ]

let test_soc_topology_sanity () =
  (* Every motion-estimation slice reads both its macroblocks and the
     reference window; the rate controller closes a loop from the mux. *)
  let sys = Lazy.force soc in
  Array.iteri
    (fun i _ ->
      let me = Option.get (System.find_process sys (Printf.sprintf "me%d" i)) in
      let producers =
        List.map (fun c -> System.process_name sys (System.channel_src sys c))
          (System.get_order sys me)
      in
      Alcotest.(check bool) "reads mb_split" true (List.mem "mb_split" producers);
      Alcotest.(check bool) "reads frame_store" true (List.mem "frame_store" producers))
    [| 0; 1; 2; 3 |];
  let rc = Option.get (System.find_process sys "rate_ctrl") in
  let rc_in = List.map (fun c -> System.process_name sys (System.channel_src sys c)) (System.get_order sys rc) in
  Alcotest.(check bool) "rate loop closes from mux" true (List.mem "mux" rc_in);
  (* The uneven slice split shows up in the channel volumes. *)
  let lat name = System.channel_latency sys (Option.get (System.find_channel sys name)) in
  Alcotest.(check bool) "slice 3 carries less" true (lat "mb_me3" < lat "mb_me0")

let test_soc_insertion_order_deadlocks () =
  (* The §2 phenomenon on the real topology: naive statement orders deadlock;
     the conservative order (installed by build) does not. Reconstruct the
     naive order by sorting every order by channel id (= insertion order). *)
  let sys = System.copy (Lazy.force soc) in
  List.iter
    (fun p ->
      System.set_get_order sys p (List.sort compare (System.get_order sys p));
      System.set_put_order sys p (List.sort compare (System.put_order sys p)))
    (System.processes sys);
  match Perf.analyze sys with
  | Error (Perf.Deadlock _) -> ()
  | _ -> Alcotest.fail "expected the naive order to deadlock"

let () =
  Alcotest.run "mpeg2"
    [
      ( "frame",
        [
          Alcotest.test_case "basics" `Quick test_frame_basics;
          Alcotest.test_case "synthetic deterministic" `Quick test_frame_synthetic_deterministic;
          Alcotest.test_case "psnr" `Quick test_frame_psnr_properties;
          Alcotest.test_case "border block" `Quick test_frame_border_block;
        ] );
      ( "dct",
        [
          Alcotest.test_case "constant block" `Quick test_dct_constant_block;
          Alcotest.test_case "roundtrip" `Quick test_dct_roundtrip;
        ] );
      ("quant", [ Alcotest.test_case "zeros" `Quick test_quant_zero_preserved ]);
      ( "zigzag",
        [
          Alcotest.test_case "prefix" `Quick test_zigzag_prefix;
          Alcotest.test_case "permutation" `Quick test_zigzag_permutation;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "rle example" `Quick test_rle_example;
          Alcotest.test_case "rle errors" `Quick test_rle_errors;
          Alcotest.test_case "vlc empty block" `Quick test_vlc_empty_block;
          Alcotest.test_case "bitstream" `Quick test_bitstream_roundtrip;
          Alcotest.test_case "exp-golomb widths" `Quick test_exp_golomb_small_values;
        ] );
      ( "motion",
        [
          Alcotest.test_case "pure translation" `Quick test_motion_finds_pure_translation;
          Alcotest.test_case "zero bias" `Quick test_motion_zero_bias;
          Alcotest.test_case "compensation" `Quick test_motion_compensate_consistent;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "decoder bit-exact" `Quick test_encoder_decoder_bit_exact;
          Alcotest.test_case "quality vs qscale" `Quick test_encoder_quality_improves_with_finer_qscale;
          Alcotest.test_case "bits vs qscale" `Quick test_encoder_bits_decrease_with_coarser_qscale;
          Alcotest.test_case "P frames cheaper" `Quick test_encoder_p_frames_smaller_than_intra;
          Alcotest.test_case "gop structure" `Quick test_encoder_gop_structure;
          Alcotest.test_case "rate control" `Quick test_encoder_rate_control_converges;
          Alcotest.test_case "macroblock count" `Quick test_macroblock_count;
          Alcotest.test_case "invalid arguments" `Quick test_encoder_invalid_args;
        ] );
      ( "soc",
        [
          Alcotest.test_case "behaviors present" `Quick test_behaviors_all_present;
          Alcotest.test_case "work split" `Quick test_behaviors_work_split;
          Alcotest.test_case "table 1 shape" `Quick test_soc_table1;
          Alcotest.test_case "valid and live" `Quick test_soc_valid_and_live;
          Alcotest.test_case "selection ordering" `Quick test_soc_selection_ordering;
          Alcotest.test_case "feedback hubs puts-first" `Quick test_soc_feedback_hubs_puts_first;
          Alcotest.test_case "naive order deadlocks" `Quick test_soc_insertion_order_deadlocks;
          Alcotest.test_case "topology sanity" `Quick test_soc_topology_sanity;
        ] );
      ( "property",
        [
          prop_dct_roundtrip;
          prop_dct_linearity;
          prop_quant_error_bounded;
          prop_quant_monotone_sparsity;
          prop_zigzag_roundtrip;
          prop_rle_roundtrip;
          prop_ue_roundtrip;
          prop_se_roundtrip;
          prop_vlc_block_roundtrip_and_cost;
        ] );
    ]
