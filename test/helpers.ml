(* Shared test utilities: alcotest testables, qcheck generators for random
   nets and systems, and small conveniences. *)

module Ratio = Ermes_tmg.Ratio
module Tmg = Ermes_tmg.Tmg
module System = Ermes_slm.System

let ratio_testable = Alcotest.testable Ratio.pp Ratio.equal

let check_ratio msg expected actual = Alcotest.check ratio_testable msg expected actual

let ratio a b = Ratio.make a b

(* ---- random timed marked graphs ---------------------------------------- *)

(* A strongly connected TMG: a ring through every transition (so the net is
   strongly connected by construction) plus random chord places. Liveness is
   enforced afterwards by dropping a token on any token-free cycle. *)
let random_tmg_gen =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* extra = int_range 0 8 in
    let* delays = list_repeat n (int_range 0 9) in
    let* ring_tokens = list_repeat n (int_range 0 2) in
    let* chords = list_repeat extra (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 2)) in
    return (delays, ring_tokens, chords))

(* Feed a token to any token-free cycle until none is left. Terminates
   because each step strictly increases the total marking and a marking
   with one token per place is live. *)
let rec make_live tmg =
  match Ermes_tmg.Liveness.find_dead_cycle tmg with
  | None -> ()
  | Some dc -> (
    match dc.Ermes_tmg.Liveness.dead_places with
    | p :: _ ->
      Tmg.set_tokens tmg p 1;
      make_live tmg
    | [] -> assert false)

let build_tmg (delays, ring_tokens, chords) =
  let tmg = Tmg.create () in
  let ts = List.map (fun d -> Tmg.add_transition tmg ~delay:d ()) delays in
  let arr = Array.of_list ts in
  let n = Array.length arr in
  List.iteri
    (fun i tokens ->
      ignore (Tmg.add_place tmg ~src:arr.(i) ~dst:arr.((i + 1) mod n) ~tokens ()))
    ring_tokens;
  List.iter
    (fun (s, d, tokens) -> ignore (Tmg.add_place tmg ~src:arr.(s) ~dst:arr.(d) ~tokens ()))
    chords;
  make_live tmg;
  tmg

let live_tmg_arbitrary =
  QCheck2.Gen.map build_tmg random_tmg_gen

(* ---- random systems ----------------------------------------------------- *)

(* A layered DAG system: source, [layers] worker layers, sink. Every worker
   reads from the previous layer and writes to the next (guaranteeing
   validity); extra forward channels create reconvergent paths. Gets_first
   only and acyclic, so any statement order is a legal test subject and
   the conservative order is always live. *)
type sys_spec = {
  spec_layers : int list;  (* worker count per layer, each >= 1 *)
  spec_latencies : int list;  (* per worker, row-major *)
  spec_extra : (int * int) list;  (* candidate extra channels, by worker id *)
  spec_chan_latency : int list;  (* latency pool, cycled *)
}

let sys_spec_gen =
  QCheck2.Gen.(
    let* layer_count = int_range 1 4 in
    let* spec_layers = list_repeat layer_count (int_range 1 3) in
    let workers = List.fold_left ( + ) 0 spec_layers in
    let* spec_latencies = list_repeat workers (int_range 0 9) in
    let* extra = int_range 0 6 in
    let* spec_extra = list_repeat extra (pair (int_range 0 (workers - 1)) (int_range 0 (workers - 1))) in
    let* spec_chan_latency = list_repeat 8 (int_range 1 9) in
    return { spec_layers; spec_latencies; spec_extra; spec_chan_latency })

let build_system spec =
  let sys = System.create ~name:"qcheck" () in
  let chan_pool = Array.of_list spec.spec_chan_latency in
  let next_chan = ref 0 in
  let fresh_latency () =
    let l = chan_pool.(!next_chan mod Array.length chan_pool) in
    incr next_chan;
    l
  in
  let latencies = Array.of_list spec.spec_latencies in
  let layer_of = ref [] in
  let workers = ref [] in
  let id = ref 0 in
  List.iteri
    (fun l count ->
      for _ = 1 to count do
        let w =
          System.add_simple_process sys ~latency:latencies.(!id) ~area:0.01
            (Printf.sprintf "w%d" !id)
        in
        incr id;
        layer_of := (w, l) :: !layer_of;
        workers := w :: !workers
      done)
    spec.spec_layers;
  let workers = Array.of_list (List.rev !workers) in
  let layer w = List.assoc w !layer_of in
  let src = System.add_simple_process sys ~latency:1 ~area:0. "src" in
  let snk = System.add_simple_process sys ~latency:1 ~area:0. "snk" in
  let next_name = ref 0 in
  let names = Hashtbl.create 16 in
  let add_channel s d =
    if s <> d && not (Hashtbl.mem names (s, d)) then begin
      Hashtbl.add names (s, d) ();
      let name = Printf.sprintf "c%d" !next_name in
      incr next_name;
      ignore (System.add_channel sys ~name ~src:s ~dst:d ~latency:(fresh_latency ()))
    end
  in
  let last_layer = List.length spec.spec_layers - 1 in
  Array.iter
    (fun w ->
      let l = layer w in
      (* Backbone in. *)
      if l = 0 then add_channel src w
      else begin
        let prev = Array.to_list workers |> List.filter (fun v -> layer v = l - 1) in
        match prev with v :: _ -> add_channel v w | [] -> assert false
      end;
      (* Backbone out. *)
      if l = last_layer then add_channel w snk
      else begin
        let next = Array.to_list workers |> List.filter (fun v -> layer v = l + 1) in
        match next with v :: _ -> add_channel w v | [] -> assert false
      end)
    workers;
  List.iter
    (fun (a, b) ->
      let u = workers.(a) and v = workers.(b) in
      if layer u < layer v then add_channel u v)
    spec.spec_extra;
  sys

let dag_system_gen = QCheck2.Gen.map build_system sys_spec_gen

(* Feedback-bearing systems reuse the synthetic generator at small scale. *)
let feedback_system_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* processes = int_range 4 14 in
    let* channels = int_range processes (2 * processes) in
    let* feedback_fraction = float_range 0.0 0.4 in
    return
      (Ermes_synth.Generate.generate
         {
           Ermes_synth.Generate.default with
           processes;
           channels;
           layers = max 2 (processes / 3);
           feedback_fraction;
           seed;
         }))

let analyze_ct sys =
  match Ermes_core.Perf.analyze sys with
  | Ok a -> Some a.Ermes_core.Perf.cycle_time
  | Error _ -> None

(* Shuffle statement orders deterministically from an int list of "random"
   draws — used to explore non-default orders in properties. *)
let permute_orders sys draws =
  let draws = Array.of_list draws in
  let k = ref 0 in
  let draw () =
    let v = if Array.length draws = 0 then 0 else draws.(!k mod Array.length draws) in
    incr k;
    abs v
  in
  let permute xs =
    (* Fisher-Yates driven by [draw]. *)
    let a = Array.of_list xs in
    for i = Array.length a - 1 downto 1 do
      let j = draw () mod (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  List.iter
    (fun p ->
      System.set_get_order sys p (permute (System.get_order sys p));
      System.set_put_order sys p (permute (System.put_order sys p)))
    (System.processes sys)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- reference System.validate and repetition_vector -------------------- *)

(* The pointer-graph implementations of [System.repetition_vector] and
   [System.validate] as they stood before both moved onto flat int arrays,
   kept verbatim apart from reading the process graph through the public
   [System.graph], plus the self-loop rule. The properties in test_slm
   check that the flat versions give the same [Ok] and the same [Error]
   text. *)
module Ref_system = struct
  module Digraph = Ermes_digraph.Digraph
  module Traversal = Ermes_digraph.Traversal
  open System

  let max_repetition = 4096

  let repetition_vector t =
    let np = process_count t in
    if np = 0 then Ok [||]
    else begin
      let num = Array.make np 0 and den = Array.make np 1 in
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let adj = Array.make np [] in
      List.iter
        (fun c ->
          let produce, consume = channel_rates t c in
          let s = channel_src t c and d = channel_dst t c in
          (* q(v) = q(u) * mul / div along the (undirected) hop. *)
          adj.(s) <- (c, d, produce, consume) :: adj.(s);
          adj.(d) <- (c, s, consume, produce) :: adj.(d))
        (channels t);
      let error = ref None in
      let fail fmt = Printf.ksprintf (fun s -> error := Some s) fmt in
      let comps = ref [] in
      for root = 0 to np - 1 do
        if num.(root) = 0 && !error = None then begin
          num.(root) <- 1;
          den.(root) <- 1;
          let comp = ref [ root ] in
          let queue = Queue.create () in
          Queue.push root queue;
          while (not (Queue.is_empty queue)) && !error = None do
            let u = Queue.pop queue in
            List.iter
              (fun (c, v, mul, div) ->
                if !error = None then begin
                  let n = num.(u) * mul and d = den.(u) * div in
                  let g = gcd n d in
                  let n = n / g and d = d / g in
                  if n > 1 lsl 30 || d > 1 lsl 30 then
                    fail "rate unfolding too large around channel %s" (channel_name t c)
                  else if num.(v) = 0 then begin
                    num.(v) <- n;
                    den.(v) <- d;
                    comp := v :: !comp;
                    Queue.push v queue
                  end
                  else if num.(v) * d <> n * den.(v) then
                    fail
                      "inconsistent rates: channel %s admits no common period (%s would \
                       need to fire %d/%d times per period of %s, but %d/%d elsewhere)"
                      (channel_name t c) (process_name t v) n d (process_name t u)
                      num.(v) den.(v)
                end)
              adj.(u)
          done;
          comps := !comp :: !comps
        end
      done;
      match !error with
      | Some e -> Error e
      | None ->
        let q = Array.make np 1 in
        List.iter
          (fun comp ->
            if !error = None then begin
              let l =
                List.fold_left
                  (fun acc p ->
                    let g = gcd acc den.(p) in
                    acc / g * den.(p))
                  1 comp
              in
              if l > 1 lsl 30 then
                fail "rate unfolding too large (no small common period)"
              else begin
                let vals = List.map (fun p -> num.(p) * (l / den.(p))) comp in
                let g = List.fold_left gcd 0 vals in
                List.iter2
                  (fun p v ->
                    let v = v / g in
                    if v > max_repetition then
                      fail
                        "rate unfolding too large: process %s repeats %d times per \
                         period (max %d)"
                        (process_name t p) v max_repetition
                    else q.(p) <- v)
                  comp vals
              end
            end)
          !comps;
        (match !error with Some e -> Error e | None -> Ok q)
    end

  let validate t =
    let g = graph t in
    let ( let* ) r f = Result.bind r f in
    let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
    let* () = if process_count t = 0 then fail "system has no process" else Ok () in
    let* () =
      match List.find_opt (fun c -> channel_src t c = channel_dst t c) (channels t) with
      | Some c ->
        fail "channel %S must connect two distinct processes, both ends are %S"
          (channel_name t c)
          (process_name t (channel_src t c))
      | None -> Ok ()
    in
    let* () =
      if sources t = [] then fail "system has no source process" else Ok ()
    in
    let* () = if sinks t = [] then fail "system has no sink process" else Ok () in
    (* Weak connectivity: every process reachable from process 0 ignoring
       direction. *)
    let undirected = Digraph.create () in
    List.iter (fun _ -> ignore (Digraph.add_vertex undirected ())) (processes t);
    List.iter
      (fun c ->
        ignore (Digraph.add_arc undirected ~src:(channel_src t c) ~dst:(channel_dst t c) ());
        ignore (Digraph.add_arc undirected ~src:(channel_dst t c) ~dst:(channel_src t c) ()))
      (channels t);
    let reach = Traversal.reachable ~from:[ 0 ] undirected in
    let* () =
      if Array.for_all Fun.id reach then Ok ()
      else
        let v = ref 0 in
        Array.iteri (fun i r -> if not r then v := i) reach;
        fail "system is not connected (e.g. process %s)" (process_name t !v)
    in
    (* Every process on a source-to-sink path. *)
    let fwd = Traversal.reachable ~from:(sources t) g in
    let bwd = Traversal.reachable ~from:(sinks t) (Digraph.reverse g) in
    let bad = ref None in
    List.iter
      (fun p -> if !bad = None && not (fwd.(p) && bwd.(p)) then bad := Some p)
      (processes t);
    let* () =
      match !bad with
      | Some p -> fail "process %s is not on any source-to-sink path" (process_name t p)
      | None -> Ok ()
    in
    (* Multi-rate weights must admit a common period, or no bounded schedule
       (and no marked-graph unfolding) exists. *)
    match repetition_vector t with Error m -> Error m | Ok _ -> Ok ()
end

(* Small systems with one injected defect each: a valid backbone
   p0 -> p1 -> ... with random forward chords and channel kinds, then
   (by [defect]) nothing, an island, a cycle back into the source, an arc
   out of the sink, a process cycle no source reaches, a multi-rate chord
   that disagrees with the backbone, a self-loop, or a rate chain whose
   unfolding is too large. Random extra arcs may add further defects, so
   the first one reported depends on the checks' order. *)
let defective_system_gen =
  QCheck2.Gen.(
    let kind_gen =
      frequency
        [
          (5, return System.Rendezvous);
          (2, map (fun d -> System.Fifo d) (int_range 1 3));
          (1, map (fun hold -> System.Handshake { hold }) (int_range 0 2));
          ( 3,
            let* produce = int_range 1 3 and* consume = int_range 1 3 in
            return (System.Multi_rate { produce; consume; depth = max produce consume }) );
        ]
    in
    let* n = int_range 1 7 in
    let* defect = int_range 0 7 in
    let* chords = list_size (int_range 0 5) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    let* noise = list_size (int_range 0 1) (pair (int_range 0 (n + 1)) (int_range 0 (n + 1))) in
    let* kinds = list_repeat (n + 12) kind_gen in
    let* at = int_range 0 (n - 1) in
    return (n, defect, chords, noise, kinds, at))

let build_defective_system (n, defect, chords, noise, kinds, at) =
  let sys = System.create ~name:"defective" () in
  (* Processes beyond the backbone exist only once a channel names them. *)
  let rec proc i =
    if i < System.process_count sys then i
    else begin
      let k = System.process_count sys in
      ignore (System.add_simple_process sys ~latency:(k mod 4) ~area:0.01 (Printf.sprintf "p%d" k));
      proc i
    end
  in
  ignore (proc (n - 1));
  let kinds = Array.of_list kinds in
  let next = ref 0 in
  let chan ?kind s d =
    let c =
      System.add_channel sys ~name:(Printf.sprintf "c%d" !next) ~src:(proc s) ~dst:(proc d)
        ~latency:(1 + (!next mod 3))
    in
    let k = match kind with Some k -> k | None -> kinds.(!next mod Array.length kinds) in
    System.set_channel_kind sys c k;
    incr next
  in
  for i = 0 to n - 2 do
    chan i (i + 1)
  done;
  List.iter (fun (a, b) -> if a < b then chan a b) chords;
  let big = System.Multi_rate { produce = 1; consume = 1024; depth = 1024 } in
  (match defect with
   | 1 -> chan n (n + 1)  (* an island: not connected *)
   | 2 -> chan (n - 1) 0  (* a cycle back into the only source *)
   | 3 -> chan (n - 1) at  (* the only sink gains an output *)
   | 4 ->
     (* A cycle that no source reaches, draining into the backbone. *)
     chan n (n + 1);
     chan (n + 1) n;
     chan n at
   | 5 ->
     chan at n ~kind:(System.Multi_rate { produce = 2; consume = 1; depth = 2 });
     chan at n
   | 6 -> chan at at  (* a self-loop *)
   | 7 ->
     (* 2 to 4 hops that each divide the rate by 1024. *)
     for h = 0 to 1 + (at mod 3) do
       chan (n - 1 + h) (n + h) ~kind:big
     done
   | _ -> ());
  List.iter (fun (a, b) -> chan a b) noise;
  sys

let defective_system_arbitrary = QCheck2.Gen.map build_defective_system defective_system_gen
