module Digraph = Ermes_digraph.Digraph
module Traversal = Ermes_digraph.Traversal

type dead_cycle = {
  dead_transitions : Tmg.transition list;
  dead_places : Tmg.place list;
}

(* The subgraph kept below contains only token-free places, so any cycle in it
   is a token-free cycle of the original net. Arc labels remember the original
   place ids so the cycle can be reported in terms of places. *)
let empty_subgraph tmg =
  let sub = Digraph.create () in
  List.iter (fun _ -> ignore (Digraph.add_vertex sub ())) (Tmg.transitions tmg);
  List.iter
    (fun p ->
      if Tmg.tokens tmg p = 0 then
        ignore
          (Digraph.add_arc sub ~src:(Tmg.place_src tmg p) ~dst:(Tmg.place_dst tmg p) p))
    (Tmg.places tmg);
  sub

let ranks_of_order tmg order =
  let ranks = Array.make (Tmg.transition_count tmg) 0 in
  List.iteri (fun i v -> ranks.(v) <- i) order;
  ranks

let live_ranks tmg =
  let sub = empty_subgraph tmg in
  match Traversal.topological_sort sub with
  | Ok order -> Ok (ranks_of_order tmg order)
  | Error cycle ->
    let n = List.length cycle in
    let arr = Array.of_list cycle in
    let place_between i =
      let u = arr.(i) and v = arr.((i + 1) mod n) in
      match Digraph.find_arc sub ~src:u ~dst:v with
      | Some a -> Digraph.arc_label sub a
      | None -> assert false
    in
    let dead_places = List.init n place_between in
    Error { dead_transitions = cycle; dead_places }

let find_dead_cycle tmg =
  match live_ranks tmg with Ok _ -> None | Error dead -> Some dead

let is_live tmg = find_dead_cycle tmg = None
