module Digraph = Ermes_digraph.Digraph
module Tmg = Ermes_tmg.Tmg
module Ratio = Ermes_tmg.Ratio

exception Too_many_cycles of int

(* Johnson's algorithm (1975), extended to multigraphs: the DFS explores arcs
   rather than successor vertices, so two parallel arcs yield two distinct
   cycles. Vertices below the current start vertex are excluded, which is
   Johnson's device for enumerating each cycle exactly once (rooted at its
   minimum vertex). *)
let elementary_cycles ?(limit = 1_000_000) g =
  let n = Digraph.vertex_count g in
  let blocked = Array.make n false in
  let blist = Array.make n [] in
  let cycles = ref [] in
  let count = ref 0 in
  let emit arcs =
    incr count;
    if !count > limit then raise (Too_many_cycles limit);
    cycles := arcs :: !cycles
  in
  for s = 0 to n - 1 do
    (* Reset state for the new start vertex. *)
    for v = s to n - 1 do
      blocked.(v) <- false;
      blist.(v) <- []
    done;
    let rec unblock v =
      if blocked.(v) then begin
        blocked.(v) <- false;
        let pending = blist.(v) in
        blist.(v) <- [];
        List.iter unblock pending
      end
    in
    let rec circuit v path =
      blocked.(v) <- true;
      let found = ref false in
      let explore a =
        let w = Digraph.arc_dst g a in
        if w >= s then begin
          if w = s then begin
            emit (List.rev (a :: path));
            found := true
          end
          else if not blocked.(w) then if circuit w (a :: path) then found := true
        end
      in
      List.iter explore (Digraph.out_arcs g v);
      if !found then unblock v
      else
        List.iter
          (fun a ->
            let w = Digraph.arc_dst g a in
            if w >= s && not (List.mem v blist.(w)) then blist.(w) <- v :: blist.(w))
          (Digraph.out_arcs g v);
      !found
    in
    ignore (circuit s [])
  done;
  List.rev !cycles

let count ?limit g = List.length (elementary_cycles ?limit g)

let max_cycle_ratio_brute tmg =
  (* [Tmg.graph] preserves arc ids, so enumerated arcs are place ids. *)
  let g = Tmg.graph tmg in
  let cycles = elementary_cycles g in
  let ratio places =
    match Tmg.cycle_ratio tmg places with
    | Some r -> r
    | None ->
      invalid_arg "Cycles.max_cycle_ratio_brute: token-free cycle (deadlocked net)"
  in
  List.fold_left
    (fun best places ->
      let r = ratio places in
      match best with
      | None -> Some (r, places)
      | Some (r0, _) -> if Ratio.(r > r0) then Some (r, places) else best)
    None cycles
