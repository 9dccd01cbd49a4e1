module Digraph = Ermes_digraph.Digraph
module Dot = Ermes_digraph.Dot
module Vec = Ermes_digraph.Vec

type transition = Digraph.vertex
type place = Digraph.arc

(* Names are the graph's labels; delays and markings sit in flat int
   arrays beside it, indexed by transition and place id. *)
type t = { g : (string, string) Digraph.t; delays : int Vec.t; marking : int Vec.t }

let create () = { g = Digraph.create (); delays = Vec.create (); marking = Vec.create () }

let add_transition tmg ?name ~delay () =
  if delay < 0 then invalid_arg "Tmg.add_transition: negative delay";
  let id = Digraph.vertex_count tmg.g in
  let tname = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  ignore (Vec.push tmg.delays delay);
  Digraph.add_vertex tmg.g tname

let add_place tmg ?name ~src ~dst ~tokens () =
  if tokens < 0 then invalid_arg "Tmg.add_place: negative marking";
  let id = Digraph.arc_count tmg.g in
  let pname = match name with Some n -> n | None -> Printf.sprintf "p%d" id in
  let p = Digraph.add_arc tmg.g ~src ~dst pname in
  ignore (Vec.push tmg.marking tokens);
  p

let transition_count tmg = Digraph.vertex_count tmg.g
let place_count tmg = Digraph.arc_count tmg.g

let delay tmg t = Vec.get tmg.delays t
let transition_name tmg t = Digraph.vertex_label tmg.g t

let set_delay tmg t d =
  if d < 0 then invalid_arg "Tmg.set_delay: negative delay";
  Vec.set tmg.delays t d

let tokens tmg p = Vec.get tmg.marking p

let set_tokens tmg p n =
  if n < 0 then invalid_arg "Tmg.set_tokens: negative marking";
  Vec.set tmg.marking p n

let place_name tmg p = Digraph.arc_label tmg.g p
let place_src tmg p = Digraph.arc_src tmg.g p
let place_dst tmg p = Digraph.arc_dst tmg.g p

let rewire_place tmg p ?name ~src ~dst ~tokens () =
  if tokens < 0 then invalid_arg "Tmg.rewire_place: negative marking";
  Digraph.rewire_arc tmg.g p ~src ~dst;
  Option.iter (Digraph.set_arc_label tmg.g p) name;
  Vec.set tmg.marking p tokens

let in_places tmg t = Digraph.in_arcs tmg.g t
let out_places tmg t = Digraph.out_arcs tmg.g t
let transitions tmg = Digraph.vertices tmg.g
let places tmg = Digraph.arcs tmg.g

let total_tokens tmg = List.fold_left (fun acc p -> acc + tokens tmg p) 0 (places tmg)
let cycle_tokens tmg ps = List.fold_left (fun acc p -> acc + tokens tmg p) 0 ps
let cycle_delay tmg ps = List.fold_left (fun acc p -> acc + delay tmg (place_dst tmg p)) 0 ps

let cycle_ratio tmg ps =
  let toks = cycle_tokens tmg ps in
  if toks = 0 then None else Some (Ratio.make (cycle_delay tmg ps) toks)

let graph tmg =
  let g = Digraph.create () in
  for t = 0 to transition_count tmg - 1 do
    ignore (Digraph.add_vertex g (transition_name tmg t, delay tmg t))
  done;
  for p = 0 to place_count tmg - 1 do
    ignore
      (Digraph.add_arc g ~src:(place_src tmg p) ~dst:(place_dst tmg p)
         (place_name tmg p, tokens tmg p))
  done;
  g

let pp ppf tmg =
  Format.fprintf ppf "@[<v>tmg: %d transitions, %d places@," (transition_count tmg)
    (place_count tmg);
  List.iter
    (fun t ->
      Format.fprintf ppf "  transition %s (delay %d)@," (transition_name tmg t)
        (delay tmg t))
    (transitions tmg);
  List.iter
    (fun p ->
      Format.fprintf ppf "  place %s: %s -> %s (tokens %d)@," (place_name tmg p)
        (transition_name tmg (place_src tmg p))
        (transition_name tmg (place_dst tmg p))
        (tokens tmg p))
    (places tmg);
  Format.fprintf ppf "@]"

let to_dot tmg =
  let vertex_name t = transition_name tmg t in
  let vertex_attrs t =
    [ ("shape", "box"); ("label", Printf.sprintf "%s / d=%d" (transition_name tmg t) (delay tmg t)) ]
  in
  let arc_attrs p =
    [ ("label", Printf.sprintf "%s (%d)" (place_name tmg p) (tokens tmg p)) ]
  in
  Dot.to_string ~name:"tmg" ~vertex_attrs ~arc_attrs ~vertex_name tmg.g
