type vertex = int
type arc = int

(* Both adjacency directions as a CSR index: the arcs leaving [v] are
   [out_adj.(out_row.(v)) .. out_adj.(out_row.(v + 1) - 1)] in ascending id,
   and likewise for the arcs entering it. *)
type index = {
  out_row : int array;
  out_adj : int array;
  in_row : int array;
  in_adj : int array;
}

(* Labels and arc endpoints live in growable arrays; the adjacency index is
   derived from [src]/[dst] on the first query after a change. It is
   published through an [Atomic], so domains that share a graph they no
   longer mutate each see either no index or a complete one. *)
type ('v, 'a) t = {
  vlabels : 'v Vec.t;
  alabels : 'a Vec.t;
  src : int Vec.t;
  dst : int Vec.t;
  index : index option Atomic.t;
}

let create () =
  {
    vlabels = Vec.create ();
    alabels = Vec.create ();
    src = Vec.create ();
    dst = Vec.create ();
    index = Atomic.make None;
  }

let invalidate g = if Option.is_some (Atomic.get g.index) then Atomic.set g.index None

let add_vertex g label =
  invalidate g;
  Vec.push g.vlabels label

let vertex_count g = Vec.length g.vlabels
let arc_count g = Vec.length g.alabels

let check_vertex g v fn =
  if v < 0 || v >= vertex_count g then
    invalid_arg (Printf.sprintf "Digraph.%s: unknown vertex %d" fn v)

let check_arc g a fn =
  if a < 0 || a >= arc_count g then
    invalid_arg (Printf.sprintf "Digraph.%s: unknown arc %d" fn a)

let add_arc g ~src ~dst label =
  check_vertex g src "add_arc";
  check_vertex g dst "add_arc";
  invalidate g;
  ignore (Vec.push g.src src);
  ignore (Vec.push g.dst dst);
  Vec.push g.alabels label

let vertex_label g v =
  check_vertex g v "vertex_label";
  Vec.get g.vlabels v

let set_vertex_label g v l =
  check_vertex g v "set_vertex_label";
  Vec.set g.vlabels v l

let arc_label g a =
  check_arc g a "arc_label";
  Vec.get g.alabels a

let set_arc_label g a l =
  check_arc g a "set_arc_label";
  Vec.set g.alabels a l

let arc_src g a =
  check_arc g a "arc_src";
  Vec.get g.src a

let arc_dst g a =
  check_arc g a "arc_dst";
  Vec.get g.dst a

let arc_ends g a = (arc_src g a, arc_dst g a)

let rewire_arc g a ~src ~dst =
  check_arc g a "rewire_arc";
  check_vertex g src "rewire_arc";
  check_vertex g dst "rewire_arc";
  if Vec.get g.src a <> src || Vec.get g.dst a <> dst then begin
    invalidate g;
    Vec.set g.src a src;
    Vec.set g.dst a dst
  end

(* Counting sort of the arc ids by endpoint: filling in ascending id leaves
   each row in ascending id. *)
let csr n m ends =
  let row = Array.make (n + 1) 0 in
  for a = 0 to m - 1 do
    let v = Vec.get ends a in
    row.(v + 1) <- row.(v + 1) + 1
  done;
  for v = 1 to n do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let cursor = Array.sub row 0 (max n 1) in
  let adj = Array.make m 0 in
  for a = 0 to m - 1 do
    let v = Vec.get ends a in
    adj.(cursor.(v)) <- a;
    cursor.(v) <- cursor.(v) + 1
  done;
  (row, adj)

let index g =
  match Atomic.get g.index with
  | Some i -> i
  | None ->
    let n = vertex_count g and m = arc_count g in
    let out_row, out_adj = csr n m g.src in
    let in_row, in_adj = csr n m g.dst in
    let i = { out_row; out_adj; in_row; in_adj } in
    Atomic.set g.index (Some i);
    i

let row_list row adj v =
  let rec loop k acc = if k < row.(v) then acc else loop (k - 1) (adj.(k) :: acc) in
  loop (row.(v + 1) - 1) []

let out_arcs g v =
  check_vertex g v "out_arcs";
  let i = index g in
  row_list i.out_row i.out_adj v

let in_arcs g v =
  check_vertex g v "in_arcs";
  let i = index g in
  row_list i.in_row i.in_adj v

let out_degree g v =
  check_vertex g v "out_degree";
  let i = index g in
  i.out_row.(v + 1) - i.out_row.(v)

let in_degree g v =
  check_vertex g v "in_degree";
  let i = index g in
  i.in_row.(v + 1) - i.in_row.(v)

let succs g v = List.map (fun a -> Vec.get g.dst a) (out_arcs g v)
let preds g v = List.map (fun a -> Vec.get g.src a) (in_arcs g v)

let vertices g = List.init (vertex_count g) Fun.id
let arcs g = List.init (arc_count g) Fun.id

let iter_vertices f g =
  for v = 0 to vertex_count g - 1 do
    f v
  done

let iter_arcs f g =
  for a = 0 to arc_count g - 1 do
    f a
  done

let fold_vertices f g acc =
  let acc = ref acc in
  iter_vertices (fun v -> acc := f v !acc) g;
  !acc

let fold_arcs f g acc =
  let acc = ref acc in
  iter_arcs (fun a -> acc := f a !acc) g;
  !acc

let find_arc g ~src ~dst =
  check_vertex g src "find_arc";
  let i = index g in
  let rec loop k =
    if k >= i.out_row.(src + 1) then None
    else if Vec.get g.dst i.out_adj.(k) = dst then Some i.out_adj.(k)
    else loop (k + 1)
  in
  loop i.out_row.(src)

let map_labels ~vertex ~arc g =
  {
    vlabels = Vec.map vertex g.vlabels;
    alabels = Vec.map arc g.alabels;
    src = Vec.map Fun.id g.src;
    dst = Vec.map Fun.id g.dst;
    index = Atomic.make None;
  }

let reverse g =
  {
    vlabels = Vec.map Fun.id g.vlabels;
    alabels = Vec.map Fun.id g.alabels;
    src = Vec.map Fun.id g.dst;
    dst = Vec.map Fun.id g.src;
    index = Atomic.make None;
  }
