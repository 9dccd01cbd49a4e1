module System = Ermes_slm.System
module Ratio = Ermes_tmg.Ratio

type result = {
  best_cycle_time : Ratio.t;
  best_system : System.t;
  evaluated : int;
  deadlocked : int;
}

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) xs in
        List.map (fun p -> x :: p) (permutations rest))
      xs

type slice_outcome = {
  slice_best : (Ratio.t * (int list * int list) list) option;
  slice_evaluated : int;
  slice_deadlocked : int;
}

let search ?(limit = 100_000) ?(jobs = 1) ?(checkpoint = fun ~slice:_ _ -> ())
    ?(resume = fun ~slice:_ -> None) sys =
  let combos = System.order_combinations sys in
  if combos > float_of_int limit then
    invalid_arg
      (Printf.sprintf "Oracle.search: %.3g order combinations exceed the limit of %d"
         combos limit);
  let work = System.copy sys in
  (* Per-process choice lists: all (get-order, put-order) pairs. *)
  let choices =
    List.map
      (fun p ->
        let gets = permutations (System.get_order work p) in
        let puts = permutations (System.put_order work p) in
        (p, List.concat_map (fun g -> List.map (fun o -> (g, o)) puts) gets))
      (System.processes work)
  in
  (* Split the enumeration into contiguous lexicographic slices by expanding
     a prefix of the per-process choices until there are at least 64. The
     slicing is a function of the system alone, so every slice has a stable
     index — a checkpoint journal written under one [jobs] resumes under any
     other. Slice results merge in slice order with strict improvement,
     which reproduces the sequential first-found minimum exactly. *)
  let rec slice prefixes rest =
    match rest with
    | (p, opts) :: tail when List.length prefixes < 64 ->
      let prefixes' =
        List.concat_map
          (fun pre -> List.map (fun choice -> (p, choice) :: pre) opts)
          prefixes
      in
      slice prefixes' tail
    | _ -> (List.map List.rev prefixes, rest)
  in
  let prefixes, rest = slice [ [] ] choices in
  let tasks = Array.of_list prefixes in
  (* One slice, against a worker's working copy and warm incremental
     session. Every enumeration leaf sets the complete order assignment on
     the way down (prefix here, the rest in [enumerate]), so the outcome is
     a function of the prefix alone — independent of whatever orders the
     previous slice left on [w]. That is what lets slices share a session. *)
  let run_slice (w, session) pre =
    List.iter
      (fun (p, (g, o)) ->
        System.set_get_order w p g;
        System.set_put_order w p o)
      pre;
    let best = ref None in
    let evaluated = ref 0 and deadlocked = ref 0 in
    let evaluate () =
      incr evaluated;
      match Incremental.analyze session with
      | Ok a ->
        let better =
          match !best with
          | None -> true
          | Some (ct, _) -> Ratio.(a.Perf.cycle_time < ct)
        in
        if better then best := Some (a.Perf.cycle_time, Order.snapshot w)
      | Error (Perf.Deadlock _) -> incr deadlocked
      | Error Perf.No_cycle -> ()
    in
    let rec enumerate = function
      | [] -> evaluate ()
      | (p, opts) :: tail ->
        List.iter
          (fun (g, o) ->
            System.set_get_order w p g;
            System.set_put_order w p o;
            enumerate tail)
          opts
    in
    enumerate rest;
    { slice_best = !best; slice_evaluated = !evaluated; slice_deadlocked = !deadlocked }
  in
  let resumed = Array.init (Array.length tasks) (fun i -> resume ~slice:i) in
  let best = ref None in
  let evaluated = ref 0 and deadlocked = ref 0 in
  let merge i o =
    checkpoint ~slice:i o;
    evaluated := !evaluated + o.slice_evaluated;
    deadlocked := !deadlocked + o.slice_deadlocked;
    match (o.slice_best, !best) with
    | Some (ct, _), Some (ct0, _) when not Ratio.(ct < ct0) -> ()
    | Some b, _ -> best := Some b
    | None, _ -> ()
  in
  (* A worker keeps one System copy and one incremental session for all the
     slices it claims in a wave: order flips between slices are the cheap
     warm path of [Incremental], where a session per slice would pay a cold
     solver start each. [work] is only read while the waves run. *)
  Ermes_parallel.Parallel.waves ~jobs ~size:256
    ~init:(fun () ->
      let w = System.copy work in
      (w, Incremental.create w))
    (Array.length tasks)
    (fun st i -> match resumed.(i) with Some o -> o | None -> run_slice st tasks.(i))
    merge;
  match !best with
  | None -> None
  | Some (ct, signature) ->
    (* Reconstitute the winning system from its orders signature: orders are
       the only thing the enumeration mutates, so this is exactly the copy
       the winning slice evaluated. *)
    let s = System.copy work in
    Order.restore s signature;
    Some
      {
        best_cycle_time = ct;
        best_system = s;
        evaluated = !evaluated;
        deadlocked = !deadlocked;
      }
