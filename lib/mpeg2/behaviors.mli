(** HLS behavioral descriptions of the 26 encoder processes.

    Each process's computation phase is described as loop nests over
    operation dataflow bodies whose shapes mirror the functional blocks
    (DCT, motion search, …) at the 352×240 geometry of the paper's Table 1:
    330 macroblocks and 1320 8×8 blocks per frame. Trip counts and operation
    mixes are derived from those block algorithms, so the Pareto sets the
    mini-HLS produces have realistic spreads (a motion-estimation slice
    sweeps two orders of magnitude between fully-shared and fully-parallel
    micro-architectures, a header generator barely moves).

    Serial algorithms (run-length scan, bitstream packing, rate-control
    accumulation) carry loop recurrences that bound their pipelining — the
    latency floors that make the exploration interesting. *)

val frame_width : int
(** 352 *)

val frame_height : int
(** 240 *)

val me_slice_mbs : int array
(** Macroblocks handled by each of the four motion-estimation slices: the 15
    macroblock rows split 4/4/4/3 (88/88/88/66 of the 330). *)

val lane_blocks : int array
(** 8×8 blocks handled by each of the three transform/quantization lanes:
    a 50/30/20 load split. *)

val all : (string * Ermes_hls.Behavior.t) list
(** The 26 (process name, behavior) pairs, in pipeline order. Process names
    match {!Soc.build}. *)

val find : string -> Ermes_hls.Behavior.t
(** @raise Not_found for names outside {!all}. *)
