module System = Ermes_slm.System
module Sim = Ermes_slm.Sim
module To_tmg = Ermes_slm.To_tmg
module Tmg = Ermes_tmg.Tmg

type t =
  | Latency_jitter of { channel : System.channel; delta : int }
  | Process_slowdown of { process : System.process; delta : int }
  | Fifo_shrink of { channel : System.channel; depth : int }
  | Channel_stall of { channel : System.channel; at_transfer : int; cycles : int }
  | Token_removal of { process : System.process }

type scenario = t list

let is_structural = function
  | Latency_jitter _ | Process_slowdown _ | Fifo_shrink _ -> true
  | Channel_stall _ | Token_removal _ -> false

let apply sys scenario =
  let np = System.process_count sys and nc = System.channel_count sys in
  let proc_delta = Array.make (max np 1) 0 in
  let chan_delta = Array.make (max nc 1) 0 in
  let shrink_to = Array.make (max nc 1) None in
  List.iter
    (function
      | Process_slowdown { process; delta } ->
        proc_delta.(process) <- proc_delta.(process) + delta
      | Latency_jitter { channel; delta } ->
        chan_delta.(channel) <- chan_delta.(channel) + delta
      | Fifo_shrink { channel; depth } ->
        shrink_to.(channel) <-
          Some
            (match shrink_to.(channel) with
            | None -> depth
            | Some d -> min d depth)
      | Channel_stall _ | Token_removal _ -> ())
    scenario;
  let out = System.create ~name:(System.name sys) () in
  List.iter
    (fun p ->
      let sel = System.selected sys p in
      let impls =
        Array.to_list
          (Array.mapi
             (fun i (im : System.impl) ->
               if i = sel && proc_delta.(p) <> 0 then
                 { im with System.latency = max 0 (im.System.latency + proc_delta.(p)) }
               else im)
             (System.impls sys p))
      in
      let p' =
        System.add_process out ~phase:(System.phase sys p) ~impls
          (System.process_name sys p)
      in
      assert (p' = p))
    (System.processes sys);
  List.iter
    (fun c ->
      let latency = max 1 (System.channel_latency sys c + chan_delta.(c)) in
      let c' =
        System.add_channel out
          ~name:(System.channel_name sys c)
          ~src:(System.channel_src sys c) ~dst:(System.channel_dst sys c) ~latency
      in
      assert (c' = c);
      match (System.channel_kind sys c, shrink_to.(c)) with
      | System.Rendezvous, _ -> ()
      | System.Fifo d, None -> System.set_channel_kind out c (System.Fifo d)
      | System.Fifo d, Some d' ->
        System.set_channel_kind out c (System.Fifo (max 1 (min d d')))
      | (System.Multi_rate _ as k), None -> System.set_channel_kind out c k
      | (System.Handshake _ as k), _ ->
        (* A handshake has no buffer to shrink; the fault is a no-op on it. *)
        System.set_channel_kind out c k
      | System.Multi_rate ({ produce; consume; depth } as r), Some d' ->
        (* Shrinking below max(produce, consume) would make the kind invalid
           (a put or get could never complete); clamp there instead. *)
        let floor_depth = max produce consume in
        System.set_channel_kind out c
          (System.Multi_rate { r with depth = max floor_depth (min depth d') }))
    (System.channels sys);
  (* add_channel appended channels in declaration order, which already equals
     the original get/put orders only when those were never permuted — restore
     the actual orders and selections explicitly. *)
  List.iter
    (fun p ->
      System.select out p (System.selected sys p);
      System.set_get_order out p (System.get_order sys p);
      System.set_put_order out p (System.put_order sys p))
    (System.processes sys);
  out

let stuck_processes scenario =
  List.filter_map (function Token_removal { process } -> Some process | _ -> None) scenario
  |> List.sort_uniq compare

let hooks scenario =
  {
    Sim.stalls =
      List.filter_map
        (function
          | Channel_stall { channel; at_transfer; cycles } -> Some (channel, at_transfer, cycles)
          | _ -> None)
        scenario;
    stuck = stuck_processes scenario;
  }

let stall_budget scenario =
  List.fold_left
    (fun acc -> function Channel_stall { cycles; _ } -> acc + max 0 cycles | _ -> acc)
    0 scenario

let remove_tokens (m : To_tmg.mapping) scenario =
  List.iter
    (fun p ->
      match m.To_tmg.initial_place.(p) with
      | Some place -> Tmg.set_tokens m.To_tmg.tmg place 0
      | None -> ())
    (stuck_processes scenario)

let to_spec sys = function
  | Latency_jitter { channel; delta } ->
    Printf.sprintf "jitter:%s:%d" (System.channel_name sys channel) delta
  | Process_slowdown { process; delta } ->
    Printf.sprintf "slow:%s:%d" (System.process_name sys process) delta
  | Fifo_shrink { channel; depth } ->
    Printf.sprintf "shrink:%s:%d" (System.channel_name sys channel) depth
  | Channel_stall { channel; at_transfer; cycles } ->
    Printf.sprintf "stall:%s:%d@%d" (System.channel_name sys channel) cycles at_transfer
  | Token_removal { process } ->
    Printf.sprintf "droptoken:%s" (System.process_name sys process)

let parse_spec sys spec =
  let ( let* ) = Result.bind in
  let channel name =
    match System.find_channel sys name with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "fault %S: unknown channel %S" spec name)
  in
  let process name =
    match System.find_process sys name with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "fault %S: unknown process %S" spec name)
  in
  let int what s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "fault %S: %s must be an integer, got %S" spec what s)
  in
  match String.split_on_char ':' spec with
  | [ "jitter"; ch; d ] ->
    let* channel = channel ch in
    let* delta = int "delta" d in
    Ok (Latency_jitter { channel; delta })
  | [ "slow"; p; d ] ->
    let* process = process p in
    let* delta = int "delta" d in
    if delta < 0 then Error (Printf.sprintf "fault %S: slowdown must be >= 0" spec)
    else Ok (Process_slowdown { process; delta })
  | [ "shrink"; ch; d ] ->
    let* channel = channel ch in
    let* depth = int "depth" d in
    if depth < 1 then Error (Printf.sprintf "fault %S: depth must be >= 1" spec)
    else Ok (Fifo_shrink { channel; depth })
  | [ "stall"; ch; spec_tail ] -> (
    let* channel = channel ch in
    match String.split_on_char '@' spec_tail with
    | [ c ] ->
      let* cycles = int "cycles" c in
      Ok (Channel_stall { channel; at_transfer = 0; cycles })
    | [ c; k ] ->
      let* cycles = int "cycles" c in
      let* at_transfer = int "transfer index" k in
      Ok (Channel_stall { channel; at_transfer; cycles })
    | _ -> Error (Printf.sprintf "fault %S: expected stall:CH:CYCLES[@K]" spec))
  | [ "droptoken"; p ] ->
    let* process = process p in
    Ok (Token_removal { process })
  | _ ->
    Error
      (Printf.sprintf
         "fault %S: expected jitter:CH:D | slow:P:D | shrink:CH:K | stall:CH:C[@K] | \
          droptoken:P"
         spec)

let pp sys ppf f =
  match f with
  | Latency_jitter { channel; delta } ->
    Format.fprintf ppf "latency jitter %+d on channel %s" delta
      (System.channel_name sys channel)
  | Process_slowdown { process; delta } ->
    Format.fprintf ppf "slowdown +%d on process %s" delta (System.process_name sys process)
  | Fifo_shrink { channel; depth } ->
    Format.fprintf ppf "FIFO %s shrunk to depth %d" (System.channel_name sys channel) depth
  | Channel_stall { channel; at_transfer; cycles } ->
    Format.fprintf ppf "transient stall of %d cycles on transfer #%d of channel %s" cycles
      at_transfer
      (System.channel_name sys channel)
  | Token_removal { process } ->
    Format.fprintf ppf "initial token of process %s removed"
      (System.process_name sys process)
