module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

let log_src = Logs.Src.create "ermes.explore" ~doc:"ERMES design-space exploration"

module Log = (val Logs.src_log log_src)
module Obs = Ermes_obs.Obs

type action = Initial | Timing_optimization | Area_recovery | Converged

type step = {
  iteration : int;
  action : action;
  changes : Ilp_select.change list;
  reordered : bool;
  cycle_time : Ratio.t;
  area : float;
}

type trace = { tct : int; steps : step list; met : bool }

type snapshot = {
  snap_step : step;
  selection : int array;
  orders : (int list * int list) list;
}

let session_analyze_exn session =
  match Incremental.analyze session with
  | Ok a -> a
  | Error f ->
    Format.kasprintf failwith "Explore: %a"
      (Perf.pp_failure (Incremental.system session)) f

(* Reorder monotonically; returns whether the orders changed plus the fresh
   analysis. *)
let reorder_if_better ~session sys =
  let saved = Order.snapshot sys in
  match Order.apply_safe ~session sys with
  | Order.Applied _ -> (Order.snapshot sys <> saved, session_analyze_exn session)
  | Order.Kept_incumbent _ -> (false, session_analyze_exn session)

let run ?(max_iterations = 16) ?(reorder = true) ?area_budget ?checkpoint ?(resume = [])
    ~tct sys =
  (* One incremental session carries every analysis of the exploration loop:
     selection changes are delay edits, reorderings are chain rewires, and
     each Howard run warm-starts from the previous policy. *)
  let session = Incremental.create sys in
  List.iter (Obs.incr ~by:0)
    [ "explore.moves.area_recovery"; "explore.moves.timing_optimization"; "explore.reorders" ];
  let visited = Hashtbl.create 16 in
  let remember () = Hashtbl.replace visited (Ilp_select.selection_vector sys) () in
  remember ();
  (* Track the best configuration seen, to restore at convergence: among
     states meeting the target the cheapest, otherwise the fastest. The
     caller passes the analysis it already holds — re-analyzing here would
     repeat the work it just did. *)
  let best = ref None in
  let note_best ~ct ~area =
    let snapshot () =
      (Ilp_select.selection_vector sys, Order.snapshot sys, ct, area)
    in
    let meets ct = Ratio.(ct <= Ratio.of_int tct) in
    let better (_, _, ct0, area0) =
      match (meets ct0, meets ct) with
      | true, true -> area < area0
      | true, false -> false
      | false, true -> true
      | false, false -> Ratio.(ct < ct0)
    in
    match !best with
    | None -> best := Some (snapshot ())
    | Some b -> if better b then best := Some (snapshot ())
  in
  let restore_best () =
    match !best with
    | None -> ()
    | Some (selection, orders, _, _) ->
      List.iteri (fun p i -> System.select sys p i) (Array.to_list selection);
      Order.restore sys orders
  in
  let steps = ref [] in
  (* Every pushed step goes through the checkpoint hook with the full
     post-step state, so a journal can reconstitute the exploration. *)
  let push step =
    steps := step :: !steps;
    match checkpoint with
    | None -> ()
    | Some f ->
      f
        {
          snap_step = step;
          selection = Ilp_select.selection_vector sys;
          orders = Order.snapshot sys;
        }
  in
  let finished = ref false in
  let iteration = ref 0 in
  let current =
    match resume with
    | [] ->
      let a0 = session_analyze_exn session in
      note_best ~ct:a0.Perf.cycle_time ~area:(System.total_area sys);
      push
        {
          iteration = 0;
          action = Initial;
          changes = [];
          reordered = false;
          cycle_time = a0.Perf.cycle_time;
          area = System.total_area sys;
        };
      ref a0
    | snaps ->
      (* Replay: apply each snapshot's post-step state, then re-walk the
         bookkeeping (visited set, best tracking, step list, checkpoint) in
         the order the original run performed it. One warm analysis at the
         end re-derives the state the loop (or the [met] verdict) needs —
         the analysis is a deterministic function of the system, so the
         continuation is identical to the uninterrupted run's. *)
      List.iter
        (fun s ->
          Array.iteri (fun p i -> System.select sys p i) s.selection;
          Order.restore sys s.orders;
          remember ();
          (match s.snap_step.action with
          | Converged -> finished := true
          | Initial | Timing_optimization | Area_recovery ->
            note_best ~ct:s.snap_step.cycle_time ~area:s.snap_step.area;
            iteration := s.snap_step.iteration);
          push s.snap_step)
        snaps;
      ref (session_analyze_exn session)
  in
  while (not !finished) && !iteration < max_iterations do
    Obs.span "explore.iteration" @@ fun () ->
    incr iteration;
    let a = !current in
    let ct = a.Perf.cycle_time in
    let slack = Ratio.sub (Ratio.of_int tct) ct in
    let action, changes =
      if Ratio.(slack > Ratio.zero) then begin
        (* Integer slack floor keeps the knapsack budget conservative. *)
        let s = Ratio.num slack / Ratio.den slack in
        (Area_recovery,
         Ilp_select.area_recovery ~tct sys ~critical:a.Perf.critical_processes ~slack:s)
      end
      else begin
        let needed = a.Perf.critical_delay - (tct * a.Perf.critical_tokens) in
        (* The dual formulation: the critical processes may spend at most the
           system budget minus what everyone else already occupies. *)
        let critical_budget =
          Option.map
            (fun total ->
              let critical_area =
                List.fold_left
                  (fun acc p -> acc +. System.area sys p)
                  0. a.Perf.critical_processes
              in
              total -. (System.total_area sys -. critical_area))
            area_budget
        in
        (Timing_optimization,
         Ilp_select.timing_optimization ?area_budget:critical_budget
           ~needed_gain:needed sys ~critical:a.Perf.critical_processes)
      end
    in
    (* Discard configurations already optimized: re-proposing a visited
       selection vector means the exploration has closed a loop. *)
    let proposed () =
      let v = Ilp_select.selection_vector sys in
      List.iter (fun (c : Ilp_select.change) -> v.(c.process) <- c.to_impl) changes;
      v
    in
    if changes = [] || Hashtbl.mem visited (proposed ()) then begin
      finished := true;
      (* Close on the best configuration encountered, not on wherever the
         oscillation happened to stop. *)
      restore_best ();
      let a' = session_analyze_exn session in
      current := a';
      push
        {
          iteration = !iteration;
          action = Converged;
          changes = [];
          reordered = false;
          cycle_time = a'.Perf.cycle_time;
          area = System.total_area sys;
        }
    end
    else begin
      Log.debug (fun m ->
          m "iter %d: %s proposes %d changes"
            !iteration
            (match action with
             | Area_recovery -> "area-recovery"
             | Timing_optimization -> "timing-optimization"
             | Initial | Converged -> "?")
            (List.length changes));
      Obs.incr
        (match action with
        | Area_recovery -> "explore.moves.area_recovery"
        | Timing_optimization | Initial | Converged -> "explore.moves.timing_optimization");
      Ilp_select.apply_changes sys changes;
      remember ();
      let after_changes = session_analyze_exn session in
      let reordered, a' =
        if reorder then reorder_if_better ~session sys else (false, after_changes)
      in
      if reordered then Obs.incr "explore.reorders";
      current := a';
      note_best ~ct:a'.Perf.cycle_time ~area:(System.total_area sys);
      Log.info (fun m ->
          m "iter %d: CT=%s area=%.4f%s" !iteration
            (Ratio.to_string a'.Perf.cycle_time)
            (System.total_area sys)
            (if reordered then " (reordered)" else ""));
      push
        {
          iteration = !iteration;
          action;
          changes;
          reordered;
          cycle_time = a'.Perf.cycle_time;
          area = System.total_area sys;
        }
    end
  done;
  if not !finished then begin
    (* Iteration budget exhausted mid-oscillation: still ship (and record)
       the best configuration seen. *)
    restore_best ();
    let a' = session_analyze_exn session in
    current := a';
    push
      {
        iteration = !iteration + 1;
        action = Converged;
        changes = [];
        reordered = false;
        cycle_time = a'.Perf.cycle_time;
        area = System.total_area sys;
      }
  end;
  let final_ct = !current.Perf.cycle_time in
  { tct; steps = List.rev !steps; met = Ratio.(final_ct <= Ratio.of_int tct) }

let reorder_only sys =
  let session = Incremental.create sys in
  let before = (session_analyze_exn session).Perf.cycle_time in
  let _, a = reorder_if_better ~session sys in
  (before, a.Perf.cycle_time)

let last_step trace =
  match List.rev trace.steps with s :: _ -> s | [] -> assert false

let final_cycle_time trace = (last_step trace).cycle_time
let final_area trace = (last_step trace).area

let action_name = function
  | Initial -> "initial"
  | Timing_optimization -> "timing-optimization"
  | Area_recovery -> "area-recovery"
  | Converged -> "converged"

let pp_trace ppf trace =
  Format.fprintf ppf "@[<v>target cycle time: %d@," trace.tct;
  List.iter
    (fun s ->
      Format.fprintf ppf "iter %d: %-19s CT=%-12s area=%.4f (%d changes%s)@,"
        s.iteration (action_name s.action)
        (Ratio.to_string s.cycle_time)
        s.area (List.length s.changes)
        (if s.reordered then ", reordered" else ""))
    trace.steps;
  Format.fprintf ppf "target %s@]" (if trace.met then "met" else "missed")
