module Traversal = Ermes_digraph.Traversal
module Digraph = Ermes_digraph.Digraph
module Obs = Ermes_obs.Obs

(* Within one round k the recurrence refers to same-round values through
   token-free places, so transitions must be processed in topological order of
   the token-free subgraph — acyclic exactly when the net is live. *)
let zero_token_order tmg =
  let sub = Digraph.create () in
  List.iter (fun _ -> ignore (Digraph.add_vertex sub ())) (Tmg.transitions tmg);
  List.iter
    (fun p ->
      if Tmg.tokens tmg p = 0 then
        ignore (Digraph.add_arc sub ~src:(Tmg.place_src tmg p) ~dst:(Tmg.place_dst tmg p) ()))
    (Tmg.places tmg);
  match Traversal.topological_sort sub with
  | Ok order -> order
  | Error _ -> invalid_arg "Firing: net is not live (token-free cycle)"

(* [fire tmg] is a function filling [row k] with round k's completion times,
   reading earlier rounds through [row j] (j <= k; rounds j <= 0 read 0). *)
let fire tmg =
  let order = zero_token_order tmg in
  fun ~row k ->
    List.iter
      (fun t ->
        let ready acc p =
          let j = k - Tmg.tokens tmg p in
          if j <= 0 then acc else max acc (row j).(Tmg.place_src tmg p)
        in
        (row k).(t) <- List.fold_left ready 0 (Tmg.in_places tmg t) + Tmg.delay tmg t)
      order

let firing_times tmg ~rounds =
  if rounds < 1 then invalid_arg "Firing.firing_times: rounds must be positive";
  let fire = fire tmg in
  let rows = Array.init rounds (fun _ -> Array.make (Tmg.transition_count tmg) 0) in
  for k = 1 to rounds do
    fire ~row:(fun j -> rows.(j - 1)) k
  done;
  Array.init (Tmg.transition_count tmg) (fun t -> Array.init rounds (fun k -> rows.(k).(t)))

(* Round k + 1 reads rounds k + 1 - m .. k, m the largest marking, so those
   m rounds relative to x_0(k) are the schedule's whole state: when they
   recur, every later round repeats shifted by the growth of x_0. A ring of
   m + 1 rounds keeps round k - m readable while round k is written. *)
let measured_cycle_time tmg ~rounds =
  let n = Tmg.transition_count tmg in
  if n = 0 then None
  else begin
    Obs.incr ~by:0 "firing.recurrences";
    let fire = fire tmg in
    let m = List.fold_left (fun m p -> max m (Tmg.tokens tmg p)) 1 (Tmg.places tmg) in
    let ring = Array.init (m + 1) (fun _ -> Array.make n 0) in
    let row j = ring.(j mod (m + 1)) in
    let seen = Recurrence.create () in
    let rec go k =
      if k > rounds then None
      else begin
        fire ~row k;
        let x0 = (row k).(0) in
        let state = Array.make (m * n) 0 in
        for i = 0 to m - 1 do
          if k - i > 0 then begin
            let x = row (k - i) in
            for t = 0 to n - 1 do
              state.((i * n) + t) <- x.(t) - x0
            done
          end
          else Array.fill state (i * n) n (-x0)
        done;
        match Recurrence.observe seen state ~iteration:k ~time:x0 with
        | Some _ as ct ->
          Obs.incr "firing.recurrences";
          ct
        | None -> go (k + 1)
      end
    in
    go 1
  end
