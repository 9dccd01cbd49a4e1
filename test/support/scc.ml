module Digraph = Ermes_digraph.Digraph

type result = { component : int array; count : int }

(* Iterative Tarjan over a flattened adjacency. The DFS machinery is four int
   arrays (vertex stack, frame stack, frame cursors, lowlinks) instead of list
   frames and per-vertex successor lists, so a million-vertex graph costs no
   GC pressure and no call-stack depth. The adjacency is flattened once from
   [Digraph.out_arcs] in the same per-vertex order [Digraph.succs] would
   yield, and roots are visited [0 .. n-1], so component numbering is exactly
   the numbering of the classic formulation (reverse topological order). *)
let compute g =
  let n = Digraph.vertex_count g in
  (* Flatten successors: row.(v) .. row.(v+1)-1 index into adj. *)
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + Digraph.out_degree g v
  done;
  let m = row.(n) in
  let adj = Array.make (max m 1) 0 in
  for v = 0 to n - 1 do
    let pos = ref row.(v) in
    List.iter
      (fun a ->
        adj.(!pos) <- Digraph.arc_dst g a;
        incr pos)
      (Digraph.out_arcs g v)
  done;
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let component = Array.make n (-1) in
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
  (* DFS frames: frame_v.(i) is the vertex, frame_it.(i) the cursor into adj. *)
  let frame_v = Array.make (max n 1) 0 in
  let frame_it = Array.make (max n 1) 0 in
  let fp = ref 0 in
  let next_index = ref 0 in
  let comp_count = ref 0 in
  let push_frame v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_it.(!fp) <- row.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push_frame root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) in
        if frame_it.(f) < row.(v + 1) then begin
          let w = adj.(frame_it.(f)) in
          frame_it.(f) <- frame_it.(f) + 1;
          if index.(w) < 0 then push_frame w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          decr fp;
          if !fp > 0 then begin
            let p = frame_v.(!fp - 1) in
            lowlink.(p) <- min lowlink.(p) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let continue_pop = ref true in
            while !continue_pop do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              component.(w) <- !comp_count;
              if w = v then continue_pop := false
            done;
            incr comp_count
          end
        end
      done
    end
  done;
  { component; count = !comp_count }

let components r =
  let buckets = Array.make r.count [] in
  let n = Array.length r.component in
  for v = n - 1 downto 0 do
    let c = r.component.(v) in
    buckets.(c) <- v :: buckets.(c)
  done;
  buckets

let is_strongly_connected g =
  Digraph.vertex_count g > 0 && (compute g).count = 1

let condensation g =
  let r = compute g in
  let q = Digraph.create () in
  for _ = 1 to r.count do
    ignore (Digraph.add_vertex q ())
  done;
  let add_quotient_arc a =
    let s = r.component.(Digraph.arc_src g a)
    and d = r.component.(Digraph.arc_dst g a) in
    if s <> d then ignore (Digraph.add_arc q ~src:s ~dst:d ())
  in
  Digraph.iter_arcs add_quotient_arc g;
  (r, q)
