module System = Ermes_slm.System
module To_tmg = Ermes_slm.To_tmg
module Traversal = Ermes_digraph.Traversal
module Tmg = Ermes_tmg.Tmg
module Csr = Ermes_tmg.Csr
module Ratio = Ermes_tmg.Ratio

let log_src = Logs.Src.create "ermes.order" ~doc:"channel ordering"

module Log = (val Logs.src_log log_src)
module Obs = Ermes_obs.Obs

type labels = {
  head_weight : int array;
  head_timestamp : int array;
  tail_weight : int array;
  tail_timestamp : int array;
  back_channel : bool array;
}

type orders = (System.channel list * System.channel list) list

let snapshot sys =
  List.map (fun p -> (System.get_order sys p, System.put_order sys p)) (System.processes sys)

let restore sys orders =
  List.iteri
    (fun p (gets, puts) ->
      System.set_get_order sys p gets;
      System.set_put_order sys p puts)
    orders

let fresh_labels sys =
  let nc = System.channel_count sys in
  let g = System.graph sys in
  {
    head_weight = Array.make nc 0;
    head_timestamp = Array.make nc 0;
    tail_weight = Array.make nc 0;
    tail_timestamp = Array.make nc 0;
    back_channel = Traversal.back_arcs ~roots:(System.sources sys) g;
  }

(* Shared queue-driven sweep. [arcs_out] lists the channels to label when a
   process is dequeued (its puts in forward order, its gets in backward
   order); [arc_far_end] is the process at the other end; [gate_in] counts
   the labeled-before-enqueue requirement (non-back in-arcs forward, non-back
   out-arcs backward); [weight_of] computes the paper's weight formula at the
   dequeued process. *)
let sweep sys ~roots ~arcs_out ~arc_far_end ~gate_count ~weight_of ~set_label =
  let np = System.process_count sys in
  let remaining = Array.init np gate_count in
  let queue = Queue.create () in
  let enqueued = Array.make np false in
  let enqueue p =
    if not enqueued.(p) then begin
      enqueued.(p) <- true;
      Queue.add p queue
    end
  in
  List.iter enqueue roots;
  let timestamp = ref 1 in
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    let w = weight_of x in
    let visit c =
      set_label c w !timestamp;
      incr timestamp;
      let y = arc_far_end c in
      remaining.(y) <- remaining.(y) - 1;
      if remaining.(y) = 0 then enqueue y
    in
    List.iter visit (arcs_out x)
  done

let count_non_back back chans =
  List.length (List.filter (fun c -> not back.(c)) chans)

let run_forward sys lb =
  let labeled = Array.make (System.channel_count sys) false in
  let weight_of x =
    let max_in =
      List.fold_left
        (fun acc c -> if labeled.(c) then max acc lb.head_weight.(c) else acc)
        0 (System.get_order sys x)
    in
    let sum_out =
      List.fold_left
        (fun acc c -> acc + System.put_side_latency sys c)
        0 (System.put_order sys x)
    in
    max_in + sum_out + System.latency sys x
  in
  sweep sys
    ~roots:(System.sources sys)
    ~arcs_out:(fun x -> System.put_order sys x)
    ~arc_far_end:(fun c -> System.channel_dst sys c)
    ~gate_count:(fun p -> count_non_back lb.back_channel (System.get_order sys p))
    ~weight_of
    ~set_label:(fun c w ts ->
      labeled.(c) <- true;
      lb.head_weight.(c) <- w;
      lb.head_timestamp.(c) <- ts)

let run_backward sys lb =
  let labeled = Array.make (System.channel_count sys) false in
  let weight_of x =
    let max_out =
      List.fold_left
        (fun acc c -> if labeled.(c) then max acc lb.tail_weight.(c) else acc)
        0 (System.put_order sys x)
    in
    let sum_in =
      List.fold_left
        (fun acc c -> acc + System.get_side_latency sys c)
        0 (System.get_order sys x)
    in
    max_out + sum_in + System.latency sys x
  in
  (* Incoming channels are visited by increasing forward head timestamp. *)
  let in_by_forward_ts x =
    List.sort
      (fun a b -> compare lb.head_timestamp.(a) lb.head_timestamp.(b))
      (System.get_order sys x)
  in
  sweep sys ~roots:(System.sinks sys) ~arcs_out:in_by_forward_ts
    ~arc_far_end:(fun c -> System.channel_src sys c)
    ~gate_count:(fun p -> count_non_back lb.back_channel (System.put_order sys p))
    ~weight_of
    ~set_label:(fun c w ts ->
      labeled.(c) <- true;
      lb.tail_weight.(c) <- w;
      lb.tail_timestamp.(c) <- ts)

let forward_labels sys =
  let lb = fresh_labels sys in
  run_forward sys lb;
  lb

let compute_labels sys =
  let lb = fresh_labels sys in
  run_forward sys lb;
  run_backward sys lb;
  lb

let final_ordering sys lb =
  let by_gets a b =
    match compare lb.head_weight.(a) lb.head_weight.(b) with
    | 0 -> compare lb.head_timestamp.(a) lb.head_timestamp.(b)
    | c -> c
  in
  let by_puts a b =
    match compare lb.tail_weight.(b) lb.tail_weight.(a) with
    | 0 -> compare lb.tail_timestamp.(a) lb.tail_timestamp.(b)
    | c -> c
  in
  List.iter
    (fun p ->
      System.set_get_order sys p (List.sort by_gets (System.get_order sys p));
      System.set_put_order sys p (List.sort by_puts (System.put_order sys p)))
    (System.processes sys)

let apply sys =
  let lb = compute_labels sys in
  final_ordering sys lb;
  lb

type safe_outcome =
  | Applied of labels
  | Kept_incumbent of [ `Would_deadlock | `Would_regress ]

(* The first-iteration dependence graph over channels: a process must
   complete every channel of its first phase before any channel of its last
   phase (gets before puts, or the reverse for [Puts_first] processes).
   Statement orders only add edges {e within} a phase, so if every process's
   gets and puts are sorted by one topological linearization of this graph,
   every dependence points forward in the linearization and no cyclic wait
   can form. The graph is acyclic exactly when every process-graph cycle
   contains a [Puts_first] process — the modelling invariant of
   {!Ermes_slm.System.phase_order}. *)
let channel_dependences sys =
  let module Digraph = Ermes_digraph.Digraph in
  let d = Digraph.create () in
  List.iter (fun _ -> ignore (Digraph.add_vertex d ())) (System.channels sys);
  List.iter
    (fun p ->
      (* Channel-id order, not current statement order: the dependence graph
         (and with it the conservative linearization) must be canonical for a
         topology, independent of whatever orders happen to be installed. *)
      let sorted order = List.sort compare (order sys p) in
      let firsts, seconds =
        match System.phase sys p with
        | System.Gets_first -> (sorted System.get_order, sorted System.put_order)
        | System.Puts_first -> (sorted System.put_order, sorted System.get_order)
      in
      List.iter
        (fun a -> List.iter (fun b -> ignore (Digraph.add_arc d ~src:a ~dst:b ())) seconds)
        firsts)
    (System.processes sys);
  d

let install_by_rank sys rank =
  let by a b = compare rank.(a) rank.(b) in
  List.iter
    (fun p ->
      System.set_get_order sys p (List.sort by (System.get_order sys p));
      System.set_put_order sys p (List.sort by (System.put_order sys p)))
    (System.processes sys)

let conservative sys =
  let d = channel_dependences sys in
  let rank = Array.make (System.channel_count sys) 0 in
  (match Traversal.topological_sort d with
   | Ok order -> List.iteri (fun i c -> rank.(c) <- i) order
   | Error cycle ->
     invalid_arg
       (Printf.sprintf
          "Order.conservative: no deadlock-free order exists — channel dependence \
           cycle through [%s]; some feedback loop lacks a Puts_first process"
          (String.concat " "
             (List.map (System.channel_name sys) cycle))));
  install_by_rank sys rank

type swap = {
  process : System.process;
  side : [ `Gets | `Puts ];
  first : System.channel;
  second : System.channel;
}

(* A swap rewires only its own process's chain places ([To_tmg.rethread]),
   so the witness places it can move are that process's: [witness] lists
   them with their ends and tokens before the swap. If none moved, the
   witness cycle survives with the base ratio, which then bounds the new
   cycle time from below, and the swap cannot improve. *)
let sweep mapping solver sys ~base ~budget ~keep =
  let tmg = mapping.To_tmg.tmg in
  let on_witness = Array.make (Tmg.place_count tmg) false in
  let mark r flag = List.iter (fun pl -> on_witness.(pl) <- flag) r.Csr.critical_places in
  mark base true;
  let base = ref base and tried = ref 0 in
  let witness p =
    Array.fold_right
      (fun pl acc ->
        if on_witness.(pl) then
          (pl, Tmg.place_src tmg pl, Tmg.place_dst tmg pl, Tmg.tokens tmg pl) :: acc
        else acc)
      mapping.To_tmg.chain_places.(p) []
  in
  let moved =
    List.exists (fun (pl, src, dst, tokens) ->
        Tmg.place_src tmg pl <> src
        || Tmg.place_dst tmg pl <> dst
        || Tmg.tokens tmg pl <> tokens)
  in
  let side_sweep p side order set_order =
    let w = ref (witness p) in
    for i = 0 to List.length (order sys p) - 2 do
      if !tried < budget then begin
        incr tried;
        if !w <> [] then begin
          let before = order sys p in
          let swapped = Array.of_list before in
          let first = swapped.(i) and second = swapped.(i + 1) in
          swapped.(i) <- second;
          swapped.(i + 1) <- first;
          set_order sys p (Array.to_list swapped);
          To_tmg.rethread mapping sys p;
          let kept =
            moved !w
            &&
            match Csr.solve solver with
            | Ok r when Ratio.(r.Csr.cycle_time < !base.Csr.cycle_time) ->
              keep { process = p; side; first; second } r
              && begin
                mark !base false;
                mark r true;
                base := r;
                w := witness p;
                true
              end
            | Ok _ | Error _ -> false
          in
          if not kept then begin
            set_order sys p before;
            To_tmg.rethread mapping sys p
          end
        end
      end
    done
  in
  List.iter
    (fun p ->
      side_sweep p `Gets System.get_order System.set_get_order;
      side_sweep p `Puts System.put_order System.set_put_order)
    (System.processes sys);
  (!tried, !base)

(* First-improvement greedy: keep every strict improvement of a sweep, and
   sweep again until one sweep keeps nothing or the budget is spent. *)
let local_search ?(max_evaluations = 10_000) sys =
  Obs.span "order.local_search" @@ fun () ->
  let mapping = To_tmg.build sys in
  let solver = Csr.make_solver mapping.To_tmg.tmg in
  let base =
    match Csr.solve solver with
    | Ok r -> r
    | Error _ -> failwith "Order.local_search: the incumbent orders deadlock"
  in
  let rec go evals base =
    let tried, base' =
      sweep mapping solver sys ~base ~budget:(max_evaluations - evals)
        ~keep:(fun _ _ -> true)
    in
    let evals = evals + tried in
    (* A kept swap's solve replaces the base. *)
    if base' != base && evals < max_evaluations then go evals base' else evals
  in
  let evals = go 0 base in
  Obs.incr ~by:evals "order.local_search.evals";
  evals

(* splitmix64, kept local so the core library stays free of global random
   state. *)
let random_stream seed =
  let state = ref (Int64.of_int seed) in
  fun bound ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.shift_right_logical z 2) mod bound

(* Greedy linear extension of the channel dependence graph, prioritized by
   Algorithm 1's labels: among the ready channels, always emit the one with
   the smallest (head weight - tail weight) — small head weight means "this
   get ends a short upstream path, serve it early", large tail weight means
   "this put starts a long downstream path, issue it early" — with the
   forward timestamp as the paper's tie-break. Every statement order sorted
   by a linear extension is deadlock-free, so this variant trades none of
   the safety of {!conservative} while recovering most of the optimization
   of {!apply}; on the paper's motivating example it produces exactly the
   optimal orders. *)
let apply_constrained sys =
  let module Digraph = Ermes_digraph.Digraph in
  let lb = compute_labels sys in
  let d = channel_dependences sys in
  let n = Digraph.vertex_count d in
  let indeg = Array.make n 0 in
  Digraph.iter_arcs (fun a -> let v = Digraph.arc_dst d a in indeg.(v) <- indeg.(v) + 1) d;
  let key c = (lb.head_weight.(c) - lb.tail_weight.(c), lb.head_timestamp.(c), c) in
  let module Ready = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  let ready = ref Ready.empty in
  Array.iteri (fun c deg -> if deg = 0 then ready := Ready.add (key c) !ready) indeg;
  let rank = Array.make n 0 in
  let emitted = ref 0 in
  while not (Ready.is_empty !ready) do
    let ((_, _, c) as k) = Ready.min_elt !ready in
    ready := Ready.remove k !ready;
    rank.(c) <- !emitted;
    incr emitted;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := Ready.add (key w) !ready)
      (Digraph.succs d c)
  done;
  if !emitted < n then
    invalid_arg "Order.apply_constrained: no deadlock-free order exists (dependence cycle)";
  install_by_rank sys rank;
  lb

let apply_safe ?session sys =
  Obs.span "order.apply_safe" @@ fun () ->
  let session =
    match session with
    | Some s ->
      if Incremental.system s != sys then
        invalid_arg "Order.apply_safe: session bound to a different system";
      s
    | None -> Incremental.create sys
  in
  let probe () = Incremental.cycle_time_opt session in
  let incumbent_ct =
    match probe () with
    | Some ct -> ct
    | None -> failwith "Order.apply_safe: the incumbent orders deadlock"
  in
  let saved = snapshot sys in
  (* Try the faithful algorithm first, the dependence-constrained variant
     second, and keep whichever live result is fastest (never worse than the
     incumbent). *)
  let lb = apply sys in
  let unconstrained =
    match probe () with Some ct -> Some (ct, snapshot sys) | None -> None
  in
  restore sys saved;
  let lb2 = apply_constrained sys in
  let constrained_ct =
    match probe () with
    | Some ct -> ct
    | None -> assert false (* linear extensions are always live *)
  in
  let best_ct, best_lb, variant =
    match unconstrained with
    | Some (ct, orders) when Ratio.(ct <= constrained_ct) ->
      restore sys orders;
      (ct, lb, "unconstrained")
    | Some _ | None -> (constrained_ct, lb2, "constrained")
  in
  if Ratio.(best_ct <= incumbent_ct) then begin
    Log.debug (fun m ->
        m "apply_safe: installed %s order (CT %s -> %s)" variant
          (Ratio.to_string incumbent_ct) (Ratio.to_string best_ct));
    Applied best_lb
  end
  else begin
    Log.debug (fun m ->
        m "apply_safe: kept incumbent (best candidate %s > %s)"
          (Ratio.to_string best_ct) (Ratio.to_string incumbent_ct));
    restore sys saved;
    Kept_incumbent `Would_regress
  end

let conservative_random ~seed sys =
  let module Digraph = Ermes_digraph.Digraph in
  let d = channel_dependences sys in
  let n = Digraph.vertex_count d in
  let draw = random_stream seed in
  (* Random linear extension: repeatedly pick a uniformly random ready
     vertex. Any linear extension of the dependence graph yields a
     deadlock-free order, so this samples the space of "plausible designer
     orders" without the near-certain deadlock of a fully random order. *)
  let indeg = Array.make n 0 in
  Digraph.iter_arcs (fun a -> let v = Digraph.arc_dst d a in indeg.(v) <- indeg.(v) + 1) d;
  let ready = ref (List.filter (fun v -> indeg.(v) = 0) (Digraph.vertices d)) in
  let rank = Array.make n 0 in
  let emitted = ref 0 in
  while !ready <> [] do
    let k = draw (List.length !ready) in
    let v = List.nth !ready k in
    ready := List.filteri (fun i _ -> i <> k) !ready;
    rank.(v) <- !emitted;
    incr emitted;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := w :: !ready)
      (Digraph.succs d v)
  done;
  if !emitted < n then
    invalid_arg
      "Order.conservative_random: no deadlock-free order exists (dependence cycle)";
  install_by_rank sys rank
