module System = Ermes_slm.System
module Soc_format = Ermes_slm.Soc_format
module Ratio = Ermes_tmg.Ratio
module Explore = Ermes_core.Explore
module Oracle = Ermes_core.Oracle
module Ilp_select = Ermes_core.Ilp_select
module Fuzz = Ermes_fault.Fuzz
module Fault = Ermes_fault.Fault
module Differential = Ermes_fault.Differential

module Obs = Ermes_obs.Obs

(* The identity under which DSE and oracle journals are validated. *)
let system_fingerprint sys = Printf.sprintf "%08x" (Journal.crc32 (Soc_format.print sys))

(* ---- degrade-instead-of-crash journal sink -------------------------------

   A campaign mid-wave must never die because the disk filled up (or the
   chaos layer said it did): the first I/O failure from the journal disables
   checkpointing for the rest of the run, warns once on stderr, and bumps
   [runtime.checkpoint.disabled] — the campaign itself continues and its
   report is unaffected. *)

type sink = { mutable sj : Journal.t option }

let describe_io_error = function
  | Unix.Unix_error (e, fn, _) -> Printf.sprintf "%s: %s" fn (Unix.error_message e)
  | Sys_error m -> m
  | e -> Printexc.to_string e

let disable_sink sink ~path e =
  sink.sj <- None;
  Obs.incr "runtime.checkpoint.disabled";
  Printf.eprintf
    "ermes: warning: checkpointing disabled (%s: %s); the campaign continues without \
     checkpoints\n\
     %!"
    (Filename.basename path) (describe_io_error e)

let sink_start ?io ~meta ~kind path =
  Obs.incr ~by:0 "runtime.checkpoint.disabled";
  match Journal.start ?io ~meta ~kind path with
  | j -> { sj = Some j }
  | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
    let sink = { sj = None } in
    disable_sink sink ~path e;
    sink

let sink_append sink payload =
  match sink.sj with
  | None -> ()
  | Some j -> (
    try Journal.append j payload
    with (Unix.Unix_error _ | Sys_error _) as e ->
      disable_sink sink ~path:(Journal.path j) e)

(* ---- payload token streams ----------------------------------------------

   A journal payload is a flat sequence of space-separated tokens; arbitrary
   strings (fault specs, mismatch messages) ride along as single
   {!Journal.escape}d tokens. Decoders raise [Bad] internally and surface
   [None] — an undecodable record degrades to "not checkpointed", never to a
   crash (the campaign just recomputes the unit, deterministically). *)

exception Bad

type stream = { toks : string array; mutable pos : int }

let stream payload =
  {
    toks =
      Array.of_list (List.filter (fun t -> t <> "") (String.split_on_char ' ' payload));
    pos = 0;
  }

let next s =
  if s.pos >= Array.length s.toks then raise Bad
  else begin
    let t = s.toks.(s.pos) in
    s.pos <- s.pos + 1;
    t
  end

let int s = match int_of_string_opt (next s) with Some i -> i | None -> raise Bad
let float_ s = match float_of_string_opt (next s) with Some f -> f | None -> raise Bad
let bool s = match bool_of_string_opt (next s) with Some b -> b | None -> raise Bad
let expect s kw = if next s <> kw then raise Bad
let eof s = s.pos = Array.length s.toks

let rep n f =
  if n < 0 then raise Bad;
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let enc_ints b xs =
  Printf.bprintf b " %d" (List.length xs);
  List.iter (Printf.bprintf b " %d") xs

let dec_ints s =
  let n = int s in
  rep n (fun () -> int s)

let enc_ratio b r = Printf.bprintf b " %d %d" (Ratio.num r) (Ratio.den r)

let dec_ratio s =
  let num = int s in
  let den = int s in
  if den = 0 then raise Bad;
  Ratio.make num den

(* Floats round-trip byte-exactly through the %h hex literal notation. *)
let enc_float b f = Printf.bprintf b " %h" f

let enc_orders b orders =
  Printf.bprintf b " %d" (List.length orders);
  List.iter
    (fun (gets, puts) ->
      enc_ints b gets;
      enc_ints b puts)
    orders

let dec_orders s =
  let n = int s in
  rep n (fun () ->
      let gets = dec_ints s in
      let puts = dec_ints s in
      (gets, puts))

(* ---- journal loading shared by the three campaigns ---------------------- *)

let load_for ~kind ~meta ~resume path =
  if resume && Sys.file_exists path then
    match Journal.load path with
    | Error e -> Error e
    | Ok l when l.Journal.kind <> kind ->
      Error
        (Printf.sprintf "%s: journal holds a %s campaign, not a %s campaign" path
           l.Journal.kind kind)
    | Ok l when l.Journal.meta <> meta ->
      Error
        (Printf.sprintf
           "%s: journal was written by a different campaign configuration (%s; this run \
            is %s)"
           path l.Journal.meta meta)
    | Ok l -> Ok l.Journal.entries
  else Ok []

(* Fuzz cases and oracle slices are independent units with stable indices:
   the journal holds one record per unit, headed "<tag> <index>". The last
   record of each unit wins; [run] gets the journal's [append] and a
   [lookup] of the loaded record for a unit index. *)
let indexed ?io ~kind ~tag ~meta ~resume path run =
  match load_for ~kind ~meta ~resume path with
  | Error e -> Error e
  | Ok entries ->
    let table = Hashtbl.create ((2 * List.length entries) + 1) in
    List.iter
      (fun payload ->
        match
          let s = stream payload in
          expect s tag;
          int s
        with
        | i -> Hashtbl.replace table i payload
        | exception Bad -> ())
      entries;
    let sink = sink_start ?io ~meta ~kind path in
    Ok (run ~append:(sink_append sink) ~lookup:(Hashtbl.find_opt table))

(* ---- fuzz ---------------------------------------------------------------- *)

(* [repro_dir] is left out: it does not affect outcomes. *)
let fuzz_meta (c : Fuzz.config) =
  Printf.sprintf "seed=%d cases=%d max_processes=%d rounds=%d rtl=%b" c.Fuzz.seed
    c.Fuzz.cases c.Fuzz.max_processes c.Fuzz.rounds c.Fuzz.rtl

let encode_fuzz_case ~case sys outcome =
  let b = Buffer.create 128 in
  Printf.bprintf b "case %d" case;
  (match outcome with
  | Fuzz.Case_agreed None -> Buffer.add_string b " agreed none"
  | Fuzz.Case_agreed (Some Differential.Dead) -> Buffer.add_string b " agreed dead"
  | Fuzz.Case_agreed (Some (Differential.Live ct)) ->
    Buffer.add_string b " agreed live";
    enc_ratio b ct
  | Fuzz.Case_failed { scenario; mismatches } ->
    Printf.bprintf b " failed %d" (List.length scenario);
    List.iter
      (fun f -> Printf.bprintf b " %s" (Journal.escape (Fault.to_spec sys f)))
      scenario;
    Printf.bprintf b " %d" (List.length mismatches);
    List.iter (fun m -> Printf.bprintf b " %s" (Journal.escape m)) mismatches);
  Buffer.contents b

(* Fault specs name processes and channels, so decoding needs the case's own
   (regenerated) system — which is why the lookup runs in the worker domains,
   against a read-only payload table. *)
let decode_fuzz_case sys payload =
  try
    let s = stream payload in
    expect s "case";
    let case = int s in
    let outcome =
      match next s with
      | "agreed" -> (
        match next s with
        | "none" -> Fuzz.Case_agreed None
        | "dead" -> Fuzz.Case_agreed (Some Differential.Dead)
        | "live" -> Fuzz.Case_agreed (Some (Differential.Live (dec_ratio s)))
        | _ -> raise Bad)
      | "failed" ->
        let nf = int s in
        let scenario =
          rep nf (fun () ->
              match Fault.parse_spec sys (Journal.unescape (next s)) with
              | Ok f -> f
              | Error _ -> raise Bad)
        in
        let nm = int s in
        let mismatches = rep nm (fun () -> Journal.unescape (next s)) in
        Fuzz.Case_failed { scenario; mismatches }
      | _ -> raise Bad
    in
    if not (eof s) then raise Bad;
    Some (case, outcome)
  with Bad -> None

let fuzz_run ?io ?log ?jobs ~path ~resume config =
  indexed ?io ~kind:"fuzz" ~tag:"case" ~meta:(fuzz_meta config) ~resume path
  @@ fun ~append ~lookup ->
  let checkpoint ~case sys outcome = append (encode_fuzz_case ~case sys outcome) in
  let resume ~case sys =
    match Option.bind (lookup case) (decode_fuzz_case sys) with
    | Some (c, outcome) when c = case -> Some outcome
    | _ -> None
  in
  Fuzz.run ?log ?jobs ~checkpoint ~resume config

(* ---- design-space exploration ------------------------------------------- *)

let action_tag = function
  | Explore.Initial -> "initial"
  | Explore.Timing_optimization -> "timing"
  | Explore.Area_recovery -> "area"
  | Explore.Converged -> "converged"

let action_of_tag = function
  | "initial" -> Explore.Initial
  | "timing" -> Explore.Timing_optimization
  | "area" -> Explore.Area_recovery
  | "converged" -> Explore.Converged
  | _ -> raise Bad

let encode_dse_snapshot (snap : Explore.snapshot) =
  let st = snap.Explore.snap_step in
  let b = Buffer.create 256 in
  Printf.bprintf b "step %d %s %b" st.Explore.iteration (action_tag st.Explore.action)
    st.Explore.reordered;
  enc_ratio b st.Explore.cycle_time;
  enc_float b st.Explore.area;
  Printf.bprintf b " %d" (List.length st.Explore.changes);
  List.iter
    (fun (c : Ilp_select.change) ->
      Printf.bprintf b " %d %d %d" c.Ilp_select.process c.Ilp_select.from_impl
        c.Ilp_select.to_impl)
    st.Explore.changes;
  enc_ints b (Array.to_list snap.Explore.selection);
  enc_orders b snap.Explore.orders;
  Buffer.contents b

let decode_dse_snapshot payload =
  try
    let s = stream payload in
    expect s "step";
    let iteration = int s in
    let action = action_of_tag (next s) in
    let reordered = bool s in
    let cycle_time = dec_ratio s in
    let area = float_ s in
    let nchanges = int s in
    let changes =
      rep nchanges (fun () ->
          let process = int s in
          let from_impl = int s in
          let to_impl = int s in
          { Ilp_select.process; from_impl; to_impl })
    in
    let selection = Array.of_list (dec_ints s) in
    let orders = dec_orders s in
    if not (eof s) then raise Bad;
    Some
      {
        Explore.snap_step =
          { Explore.iteration; action; changes; reordered; cycle_time; area };
        selection;
        orders;
      }
  with Bad -> None

let dse_meta ~max_iterations ~reorder ~area_budget ~tct sys =
  Printf.sprintf "sys=%s tct=%d reorder=%b budget=%s iters=%d" (system_fingerprint sys)
    tct reorder
    (match area_budget with None -> "none" | Some a -> Printf.sprintf "%h" a)
    max_iterations

let dse_run ?io ?(max_iterations = 16) ?(reorder = true) ?area_budget ~path ~resume ~tct
    sys =
  let meta = dse_meta ~max_iterations ~reorder ~area_budget ~tct sys in
  match load_for ~kind:"dse" ~meta ~resume path with
  | Error e -> Error e
  | Ok entries ->
    (* Exploration steps are sequential: replay the longest decodable prefix
       (an undecodable middle record would otherwise tear a hole in the
       history). *)
    let rec prefix acc = function
      | [] -> List.rev acc
      | p :: tl -> (
        match decode_dse_snapshot p with
        | Some snap -> prefix (snap :: acc) tl
        | None -> List.rev acc)
    in
    let snaps = prefix [] entries in
    let sink = sink_start ?io ~meta ~kind:"dse" path in
    let checkpoint snap = sink_append sink (encode_dse_snapshot snap) in
    Ok (Explore.run ~max_iterations ~reorder ?area_budget ~checkpoint ~resume:snaps ~tct sys)

(* ---- oracle -------------------------------------------------------------- *)

let oracle_meta sys = Printf.sprintf "sys=%s" (system_fingerprint sys)

let encode_oracle_slice ~slice (o : Oracle.slice_outcome) =
  let b = Buffer.create 128 in
  Printf.bprintf b "slice %d %d %d" slice o.Oracle.slice_evaluated o.Oracle.slice_deadlocked;
  (match o.Oracle.slice_best with
  | None -> Buffer.add_string b " none"
  | Some (ct, orders) ->
    Buffer.add_string b " best";
    enc_ratio b ct;
    enc_orders b orders);
  Buffer.contents b

let decode_oracle_slice payload =
  try
    let s = stream payload in
    expect s "slice";
    let slice = int s in
    let slice_evaluated = int s in
    let slice_deadlocked = int s in
    let slice_best =
      match next s with
      | "none" -> None
      | "best" ->
        let ct = dec_ratio s in
        let orders = dec_orders s in
        Some (ct, orders)
      | _ -> raise Bad
    in
    if not (eof s) then raise Bad;
    Some (slice, { Oracle.slice_best; slice_evaluated; slice_deadlocked })
  with Bad -> None

let oracle_search ?io ?limit ?jobs ~path ~resume sys =
  indexed ?io ~kind:"oracle" ~tag:"slice" ~meta:(oracle_meta sys) ~resume path
  @@ fun ~append ~lookup ->
  let checkpoint ~slice outcome = append (encode_oracle_slice ~slice outcome) in
  let resume ~slice =
    match Option.bind (lookup slice) decode_oracle_slice with
    | Some (i, outcome) when i = slice -> Some outcome
    | _ -> None
  in
  Oracle.search ?limit ?jobs ~checkpoint ~resume sys
