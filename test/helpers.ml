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
