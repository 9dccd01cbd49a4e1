module Tmg = Ermes_tmg.Tmg
module Vec = Ermes_digraph.Vec
module Obs = Ermes_obs.Obs

type owner = Channel of System.channel | Process of System.process

type mapping = {
  tmg : Tmg.t;
  channel_entry : Tmg.transition array array;
  channel_exit : Tmg.transition array array;
  channel_ack : Tmg.transition array array;
  compute_transition : Tmg.transition array array;
  repetition : int array;
  owner : owner array;
  initial_place : Tmg.place option array;
  chain_places : Tmg.place array array;
  data_place : Tmg.place array array;
  credit_place : Tmg.place array array;
}

let repetition_vector_exn sys =
  match System.repetition_vector sys with
  | Ok q -> q
  | Error m -> invalid_arg ("To_tmg.build: " ^ m)

(* Instance naming: the [i]-th copy of [base] in a [n]-fold unfolding. A
   unit unfolding keeps the plain name, so unit-rate systems build nets
   bit-identical (ids and names) to the historical single-instance
   translation. *)
let inst base n i = if n = 1 then base else String.concat "#" [ base; string_of_int i ]

let ceil_div a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

(* The buffered-channel gadget at rates [produce]/[consume] and [depth]
   slots, between [qs] enqueue and [qd] dequeue instances per period
   (balance: qs*produce = qd*consume).

   Data: dequeue instance [j] (0-based within the period) needs (j+1)*consume
   items, which the producer has deposited exactly when its instance
   f(j) = ceil((j+1)*consume/produce) - 1 of the same period completes; the
   enqueue chain is serial, so one 0-token place enq_{f(j)} -> deq_j carries
   the whole dependency.

   Credits: enqueue instance [i] needs [produce] free slots, i.e. global
   dequeue completion count >= ceil(((i+1)*produce - depth)/consume); with
   g = that bound - 1, the blocking dequeue instance is g mod qd of the
   period floor(g/qd) — one place deq_{g mod qd} -> enq_i carrying
   (g mod qd - g)/qd tokens (the number of periods of slack; depth >= 1
   keeps g <= qd-1, so the token count is never negative). At unit rates
   this degenerates to the classic relay-station pair: one 0-token data
   place and one depth-token credit place. *)
let buffered_gadget ~produce ~consume ~depth ~qs ~qd =
  let data = Array.init qd (fun j -> ceil_div ((j + 1) * consume) produce - 1) in
  let credit =
    Array.init qs (fun i ->
        let g = ceil_div (((i + 1) * produce) - depth) consume - 1 in
        let j0 = ((g mod qd) + qd) mod qd in
        (j0, (j0 - g) / qd))
  in
  (data, credit)

(* The per-process statement chain, as the places a fresh build would create:
   index [i] is the place from statement [i] to statement [i+1] (cyclically),
   named after the statement it enters, carrying the initial token iff it
   enters the first I/O statement. A process with repetition q > 1 unrolls
   its gets/compute/puts sequence q times into the one cycle — the k-th
   occurrence of a channel statement attaches to the channel's k-th
   transition instance — still with a single token (the process is serial).
   Each statement of the base sequence is its transition instances and its
   name; a channel occurs once in the sequence ([System.validate] rejects a
   channel from a process to itself), so copy [k] uses instance [k]. [place]
   receives each place's index, name, endpoints and marking. Shared between
   [build] (which creates the places) and [rethread] (which rewires them in
   place after an order change). *)
let chain_length sys repetition p =
  (List.length (System.get_order sys p) + 1 + List.length (System.put_order sys p))
  * repetition.(p)

let iter_chain ~channel_entry ~channel_exit ~compute_transition ~repetition sys p place =
  let pname = System.process_name sys p in
  let gets = System.get_order sys p and puts = System.put_order sys p in
  let io prefix instances c =
    (instances.(c), String.concat "_" [ prefix; pname; System.channel_name sys c ])
  in
  let gets = List.map (io "get" channel_exit) gets in
  let puts = List.map (io "put" channel_entry) puts in
  let compute = (compute_transition.(p), "comp_" ^ pname) in
  let base, first_io =
    match System.phase sys p with
    | System.Gets_first -> (gets @ (compute :: puts), if gets <> [] then 0 else 1)
    | System.Puts_first -> (puts @ (compute :: gets), if puts <> [] then 0 else 1)
  in
  let base = Array.of_list base in
  let b = Array.length base and q = repetition.(p) in
  (* Without a channel the only statement is the compute: no token. *)
  let first_io = if b = 1 then -1 else first_io in
  let n = b * q in
  let transition j = (fst base.(j mod b)).(j / b) in
  for i = 0 to n - 1 do
    let j = if i = n - 1 then 0 else i + 1 in
    place i (inst (snd base.(j mod b)) q (j / b)) (transition i) (transition j)
      (if j = first_io then 1 else 0)
  done

let build sys =
  Obs.span "to_tmg.build" @@ fun () ->
  let q = repetition_vector_exn sys in
  let tmg = Tmg.create () in
  let nch = System.channel_count sys and np = System.process_count sys in
  let channel_entry = Array.make (max nch 1) [||] in
  let channel_exit = Array.make (max nch 1) [||] in
  let channel_ack = Array.make (max nch 1) [||] in
  let compute_transition = Array.make (max np 1) [||] in
  let repetition = Array.make (max np 1) 1 in
  Array.iteri (fun p v -> repetition.(p) <- v) q;
  let initial_place = Array.make (max np 1) None in
  let chain_places = Array.make (max np 1) [||] in
  let data_place = Array.make (max nch 1) [||] in
  let credit_place = Array.make (max nch 1) [||] in
  let owners = Vec.create () in
  let add_transition ~name ~delay owner =
    let t = Tmg.add_transition tmg ~name ~delay () in
    let i = Vec.push owners owner in
    assert (i = t);
    t
  in
  List.iter
    (fun c ->
      let name = System.channel_name sys c in
      let latency = System.channel_latency sys c in
      let qs = repetition.(System.channel_src sys c) in
      let qd = repetition.(System.channel_dst sys c) in
      match System.channel_kind sys c with
      | System.Rendezvous ->
        let xs =
          Array.init qs (fun i ->
              add_transition ~name:(inst name qs i) ~delay:latency (Channel c))
        in
        channel_entry.(c) <- xs;
        channel_exit.(c) <- xs
      | System.Handshake { hold } ->
        (* One transfer transition per instance (both endpoints block on it,
           like a rendezvous) plus an ack transition of delay [hold]; the
           ack loop X_i -> A_i -> X_{i+1 mod q} carries one token, so the
           next transfer cannot start before the previous ack completes. *)
        let xs =
          Array.init qs (fun i ->
              add_transition ~name:(inst name qs i) ~delay:latency (Channel c))
        in
        let acks =
          Array.init qs (fun i ->
              add_transition ~name:(inst (name ^ "_ack") qs i) ~delay:hold (Channel c))
        in
        data_place.(c) <-
          Array.init qs (fun i ->
              Tmg.add_place tmg
                ~name:(inst (name ^ "_hold") qs i)
                ~src:xs.(i) ~dst:acks.(i) ~tokens:0 ());
        credit_place.(c) <-
          Array.init qs (fun i ->
              Tmg.add_place tmg
                ~name:(inst (name ^ "_ready") qs i)
                ~src:acks.(i)
                ~dst:xs.((i + 1) mod qs)
                ~tokens:(if i = qs - 1 then 1 else 0)
                ());
        channel_entry.(c) <- xs;
        channel_exit.(c) <- xs;
        channel_ack.(c) <- acks
      | System.Fifo _ | System.Multi_rate _ ->
        let produce, consume = System.channel_rates sys c in
        let depth =
          match System.channel_kind sys c with
          | System.Fifo d | System.Multi_rate { depth = d; _ } -> d
          | System.Rendezvous | System.Handshake _ -> assert false
        in
        let enqs =
          Array.init qs (fun i ->
              add_transition ~name:(inst (name ^ "_enq") qs i) ~delay:latency (Channel c))
        in
        let deqs =
          Array.init qd (fun j ->
              add_transition
                ~name:(inst (name ^ "_deq") qd j)
                ~delay:(System.get_side_latency sys c)
                (Channel c))
        in
        let data, credit = buffered_gadget ~produce ~consume ~depth ~qs ~qd in
        data_place.(c) <-
          Array.init qd (fun j ->
              Tmg.add_place tmg
                ~name:(inst (name ^ "_data") qd j)
                ~src:enqs.(data.(j)) ~dst:deqs.(j) ~tokens:0 ());
        credit_place.(c) <-
          Array.init qs (fun i ->
              let j0, tokens = credit.(i) in
              Tmg.add_place tmg
                ~name:(inst (name ^ "_credit") qs i)
                ~src:deqs.(j0) ~dst:enqs.(i) ~tokens ());
        channel_entry.(c) <- enqs;
        channel_exit.(c) <- deqs)
    (System.channels sys);
  List.iter
    (fun p ->
      let n = repetition.(p) in
      compute_transition.(p) <-
        Array.init n (fun k ->
            add_transition
              ~name:(inst ("L_" ^ System.process_name sys p) n k)
              ~delay:(System.latency sys p) (Process p)))
    (System.processes sys);
  (* One cyclic chain of places per process: gets, compute, puts (or puts
     first), unrolled repetition-vector-many times. The place closing the
     cycle into the first I/O statement carries the initial token (paper §3:
     "a token is placed in the first get-place of each process ... [and] on
     the put-place of the test-bench process"). A process with no channels
     would be rejected by [System.validate]; it is threaded token-free
     defensively. Puts attach to the channel's producer-side transition
     instances and gets to its consumer side, in occurrence order. *)
  for p = 0 to np - 1 do
    let chain = Array.make (chain_length sys repetition p) 0 in
    iter_chain ~channel_entry ~channel_exit ~compute_transition ~repetition sys p
      (fun i name src dst tokens ->
        let place = Tmg.add_place tmg ~name ~src ~dst ~tokens () in
        if tokens = 1 then initial_place.(p) <- Some place;
        chain.(i) <- place);
    chain_places.(p) <- chain
  done;
  {
    tmg;
    channel_entry;
    channel_exit;
    channel_ack;
    compute_transition;
    repetition;
    owner = Vec.to_array owners;
    initial_place;
    chain_places;
    data_place;
    credit_place;
  }

let rethread mapping sys p =
  let chain = mapping.chain_places.(p) in
  if chain_length sys mapping.repetition p <> Array.length chain then
    invalid_arg "To_tmg.rethread: statement count changed (rebuild required)";
  let tmg = mapping.tmg in
  iter_chain ~channel_entry:mapping.channel_entry ~channel_exit:mapping.channel_exit
    ~compute_transition:mapping.compute_transition ~repetition:mapping.repetition sys p
    (fun i name src dst tokens ->
      let place = chain.(i) in
      if
        Tmg.place_src tmg place <> src
        || Tmg.place_dst tmg place <> dst
        || Tmg.tokens tmg place <> tokens
        || not (String.equal (Tmg.place_name tmg place) name)
      then Tmg.rewire_place tmg place ~name ~src ~dst ~tokens ();
      if tokens = 1 then mapping.initial_place.(p) <- Some place)

(* A depth-only edit on a buffered channel moves tokens on (and possibly the
   sources of) its credit places. When every recomputed credit place keeps
   its dequeue source — always true at unit rates, where the source is the
   single dequeue — the edit is a handful of token writes; when a source
   moves (possible at true multi-rates, where the blocking dequeue instance
   depends on the depth) the marked-graph structure changes and the caller
   must rebuild. *)
let absorb_depth_edit mapping sys c =
  match System.channel_kind sys c with
  | System.Rendezvous | System.Handshake _ -> false
  | System.Fifo _ | System.Multi_rate _ ->
    let produce, consume = System.channel_rates sys c in
    let depth =
      match System.channel_kind sys c with
      | System.Fifo d | System.Multi_rate { depth = d; _ } -> d
      | System.Rendezvous | System.Handshake _ -> assert false
    in
    let enqs = mapping.channel_entry.(c) and deqs = mapping.channel_exit.(c) in
    let credits = mapping.credit_place.(c) in
    let qs = Array.length enqs and qd = Array.length deqs in
    if qs = 0 || qd = 0 || Array.length credits <> qs then false
    else begin
      let _, credit = buffered_gadget ~produce ~consume ~depth ~qs ~qd in
      let sound = ref true in
      Array.iteri
        (fun i (j0, _) ->
          if Tmg.place_src mapping.tmg credits.(i) <> deqs.(j0) then sound := false)
        credit;
      if !sound then
        Array.iteri
          (fun i (_, tokens) -> Tmg.set_tokens mapping.tmg credits.(i) tokens)
          credit;
      !sound
    end

let transition_owner mapping t = mapping.owner.(t)

let processes_on_cycle mapping cycle =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun t ->
      match transition_owner mapping t with
      | Process p when not (Hashtbl.mem seen p) ->
        Hashtbl.add seen p ();
        Some p
      | Process _ | Channel _ -> None)
    cycle

let channels_on_cycle mapping cycle =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun t ->
      match transition_owner mapping t with
      | Channel c when not (Hashtbl.mem seen c) ->
        Hashtbl.add seen c ();
        Some c
      | Channel _ | Process _ -> None)
    cycle
