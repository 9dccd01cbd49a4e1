module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio
module Liveness = Ermes_tmg.Liveness
module Csr = Ermes_tmg.Csr

type t =
  | Bounded of {
      ratio : Ratio.t;
      witness : Tmg.place list;
      potentials : int array;
      ranks : int array;
    }
  | Deadlocked of { cycle : Tmg.place list }
  | Acyclic of { ranks : int array }
  | Live of { ranks : int array }

type violation = { obligation : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "certificate rejected [%s]: %s" v.obligation v.detail

(* ------------------------------------------------------------------ *)
(* The independent checker. Everything below reads the net exclusively
   through a frozen {!Csr.t} and computes in exact machine integers — no
   solver code runs. The freeze joins the trusted base, so callers pass a
   fresh [Csr.of_tmg], never a solver's internal arrays; [weight.(p)] is by
   construction [delay.(dst.(p))]. Magnitudes: delays <= ~1e6, tokens <= ~1e5
   and potentials are integer combinations of O(V) of them, far below 2^62. *)
(* ------------------------------------------------------------------ *)

let fail obligation fmt =
  Format.kasprintf (fun detail -> Error { obligation; detail }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check_csr (g : Csr.t) cert =
  let pid (p : Tmg.place) = (p :> int) in
  let check_place_ids obligation places =
    let rec go = function
      | [] -> Ok ()
      | p :: rest ->
        let i = pid p in
        if i < 0 || i >= g.Csr.m then
          fail obligation "place id %d outside the net (%d places)" i g.Csr.m
        else go rest
    in
    go places
  in
  let check_closed_walk obligation places =
    let* () = check_place_ids obligation places in
    match places with
    | [] -> fail obligation "empty witness cycle"
    | first :: _ ->
      let rec go = function
        | [] -> assert false
        | [ last ] ->
          if g.Csr.dst.(pid last) = g.Csr.src.(pid first) then Ok ()
          else
            fail obligation "witness does not close: %s ends at %s, %s starts at %s"
              g.Csr.pname.(pid last)
              g.Csr.tname.(g.Csr.dst.(pid last))
              g.Csr.pname.(pid first)
              g.Csr.tname.(g.Csr.src.(pid first))
        | p :: (q :: _ as rest) ->
          if g.Csr.dst.(pid p) = g.Csr.src.(pid q) then go rest
          else
            fail obligation "witness is not a walk: %s ends at %s but %s starts at %s"
              g.Csr.pname.(pid p)
              g.Csr.tname.(g.Csr.dst.(pid p))
              g.Csr.pname.(pid q)
              g.Csr.tname.(g.Csr.src.(pid q))
      in
      go places
  in
  let check_array_size obligation what a =
    if Array.length a = g.Csr.n then Ok ()
    else
      fail obligation "%s has %d entries for %d transitions" what (Array.length a)
        g.Csr.n
  in
  let check_ranks obligation ~relevant ranks =
    let* () = check_array_size obligation "rank vector" ranks in
    let rec go p =
      if p >= g.Csr.m then Ok ()
      else if relevant p then begin
        let u = g.Csr.src.(p) and v = g.Csr.dst.(p) in
        if ranks.(u) < ranks.(v) then go (p + 1)
        else
          fail obligation "place %s violates the order: rank(%s)=%d >= rank(%s)=%d"
            g.Csr.pname.(p) g.Csr.tname.(u) ranks.(u) g.Csr.tname.(v) ranks.(v)
      end
      else go (p + 1)
    in
    go 0
  in
  let check_liveness_ranks ranks =
    check_ranks "liveness-ranks" ~relevant:(fun p -> g.Csr.tokens.(p) = 0) ranks
  in
  match cert with
  | Deadlocked { cycle } ->
    let* () = check_closed_walk "dead-cycle" cycle in
    let rec all_empty = function
      | [] -> Ok ()
      | p :: rest ->
        if g.Csr.tokens.(pid p) = 0 then all_empty rest
        else
          fail "dead-cycle" "place %s carries %d tokens; the witness is not token-free"
            g.Csr.pname.(pid p)
            g.Csr.tokens.(pid p)
    in
    all_empty cycle
  | Acyclic { ranks } -> check_ranks "acyclic-ranks" ~relevant:(fun _ -> true) ranks
  | Live { ranks } -> check_liveness_ranks ranks
  | Bounded { ratio; witness; potentials; ranks } ->
    let p = Ratio.num ratio and q = Ratio.den ratio in
    let* () = check_liveness_ranks ranks in
    let* () = check_closed_walk "witness-cycle" witness in
    let wsum = List.fold_left (fun acc pl -> acc + g.Csr.weight.(pid pl)) 0 witness in
    let tsum = List.fold_left (fun acc pl -> acc + g.Csr.tokens.(pid pl)) 0 witness in
    let* () =
      if tsum <= 0 then
        fail "witness-ratio" "witness cycle carries no token (delay %d)" wsum
      else Ok ()
    in
    let* () =
      if q * wsum = p * tsum then Ok ()
      else
        fail "witness-ratio" "witness attains %d/%d, certificate claims %d/%d" wsum tsum
          p q
    in
    let* () = check_array_size "potential-feasibility" "potential vector" potentials in
    let rec feasible pl =
      if pl >= g.Csr.m then Ok ()
      else begin
        let u = g.Csr.src.(pl) and v = g.Csr.dst.(pl) in
        let reduced = (q * g.Csr.weight.(pl)) - (p * g.Csr.tokens.(pl)) in
        if potentials.(u) + reduced <= potentials.(v) then feasible (pl + 1)
        else
          fail "potential-feasibility"
            "place %s violates feasibility: pot(%s)=%d + (%d*%d - %d*%d) > pot(%s)=%d"
            g.Csr.pname.(pl) g.Csr.tname.(u) potentials.(u) q g.Csr.weight.(pl) p
            g.Csr.tokens.(pl) g.Csr.tname.(v) potentials.(v)
      end
    in
    feasible 0

let describe = function
  | Bounded { ratio; witness; potentials; _ } ->
    Printf.sprintf "bounded: max cycle ratio %s, witness of %d places, potentials over %d transitions"
      (Ratio.to_string ratio) (List.length witness) (Array.length potentials)
  | Deadlocked { cycle } ->
    Printf.sprintf "deadlocked: token-free witness cycle of %d places" (List.length cycle)
  | Acyclic { ranks } ->
    Printf.sprintf "acyclic: topological order over %d transitions" (Array.length ranks)
  | Live { ranks } ->
    Printf.sprintf "live: token-free subgraph order over %d transitions" (Array.length ranks)

(* ------------------------------------------------------------------ *)
(* Constructors. These may call solver code: if any assembled piece is
   inconsistent, the certificate simply fails [check_csr] — constructors
   cannot manufacture validity. *)
(* ------------------------------------------------------------------ *)

(* A rank vector that deliberately satisfies nothing (all zeros): used when
   a solver claims a verdict the rank-producing pass contradicts, so the
   resulting certificate is rejected instead of silently patched. *)
let ranks_or_refuted (g : Csr.t) = function
  | Ok ranks -> ranks
  | Error _ -> Array.make g.Csr.n 0

let of_certified g = function
  | Ok (ratio, witness, potentials) ->
    Bounded { ratio; witness; potentials; ranks = ranks_or_refuted g (Csr.live_ranks g) }
  | Error (Csr.Deadlock d) -> Deadlocked { cycle = d.Liveness.dead_places }
  | Error Csr.No_cycle -> Acyclic { ranks = ranks_or_refuted g (Csr.topo_ranks g) }

let of_howard_csr g r =
  of_certified g
    (Result.map (fun (r : Csr.result) -> (r.cycle_time, r.critical_places, r.potentials)) r)

let of_liveness tmg =
  match Liveness.live_ranks tmg with
  | Ok ranks -> Live { ranks }
  | Error d -> Deadlocked { cycle = d.Liveness.dead_places }
