let available () = Domain.recommended_domain_count ()

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let env_jobs () = Option.bind (Sys.getenv_opt "ERMES_JOBS") parse_jobs

let default_jobs () = match env_jobs () with Some n -> n | None -> 1

exception Worker_failure of int * exn

(* Deterministic fan-out: tasks are claimed from a shared atomic counter and
   every result lands at its input index, so the output order (and any
   exception surfaced — lowest index wins) is independent of worker count and
   scheduling. Exceptions are caught per task together with the raw backtrace
   of their raise point (captured inside the worker domain, where it is still
   accurate); after all domains join, the first failing index re-raises with
   that backtrace re-attached.

   Degradation ladder: a refused [Domain.spawn] means fewer workers, and a
   worker that dies outside its tasks (an infrastructure failure: [attempt]
   catches every task exception) costs only its domain — every slot it left
   unfilled runs on the calling domain after the join. Both rungs count in
   [parallel.lost_workers]. *)
let run_tasks jobs n task =
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let jobs = max 1 (min jobs n) in
    let obs = Ermes_obs.Obs.enabled () in
    if obs then begin
      Ermes_obs.Obs.incr "parallel.batches";
      Ermes_obs.Obs.incr ~by:n "parallel.tasks"
    end;
    let attempt i =
      try Ok (task i) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let tally = Array.make jobs 0 in
    let fill slot i =
      results.(i) <- Some (attempt i);
      tally.(slot) <- tally.(slot) + 1
    in
    let next = Atomic.make 0 in
    let worker slot () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue_ := false else fill slot i
      done
    in
    let lost = ref 0 in
    let domains =
      List.filter_map
        (fun k ->
          match Domain.spawn (worker (k + 1)) with
          | d -> Some d
          | exception _ ->
            incr lost;
            None)
        (List.init (jobs - 1) Fun.id)
    in
    worker 0 ();
    List.iter (fun d -> try Domain.join d with _ -> incr lost) domains;
    Array.iteri (fun i r -> if Option.is_none r then fill 0 i) results;
    (* Recorded after the join, on the calling domain: the split across
       slots is scheduling-dependent, only the total is deterministic. *)
    if obs then begin
      Array.iteri
        (fun slot k ->
          Ermes_obs.Obs.incr ~by:k (Printf.sprintf "parallel.domain%d.tasks" slot))
        tally;
      if jobs > 1 then Ermes_obs.Obs.incr ~by:!lost "parallel.lost_workers"
    end;
    Array.mapi
      (fun i r ->
        match r with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) ->
          Printexc.raise_with_backtrace (Worker_failure (i, e)) bt
        | None -> assert false)
      results
  end

let init ?jobs n f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  run_tasks jobs n f

let map ?jobs f xs =
  let arr = Array.of_list xs in
  Array.to_list (init ?jobs (Array.length arr) (fun i -> f arr.(i)))
