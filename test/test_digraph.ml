module Digraph = Ermes_digraph.Digraph
module Traversal = Ermes_digraph.Traversal
module Scc = Ermes_support.Scc
module Dot = Ermes_digraph.Dot

(* Build a graph from an arc list over [n] unit-labelled vertices. *)
let graph n arcs =
  let g = Digraph.create () in
  for _ = 1 to n do
    ignore (Digraph.add_vertex g ())
  done;
  List.iter (fun (s, d) -> ignore (Digraph.add_arc g ~src:s ~dst:d ())) arcs;
  g

let test_basic () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex g "a" in
  let b = Digraph.add_vertex g "b" in
  let e = Digraph.add_arc g ~src:a ~dst:b 7 in
  Alcotest.(check int) "vertices" 2 (Digraph.vertex_count g);
  Alcotest.(check int) "arcs" 1 (Digraph.arc_count g);
  Alcotest.(check string) "vlabel" "a" (Digraph.vertex_label g a);
  Alcotest.(check int) "alabel" 7 (Digraph.arc_label g e);
  Alcotest.(check (pair int int)) "ends" (a, b) (Digraph.arc_ends g e);
  Alcotest.(check (list int)) "out a" [ e ] (Digraph.out_arcs g a);
  Alcotest.(check (list int)) "in b" [ e ] (Digraph.in_arcs g b);
  Alcotest.(check (list int)) "succs" [ b ] (Digraph.succs g a);
  Alcotest.(check (list int)) "preds" [ a ] (Digraph.preds g b);
  Digraph.set_arc_label g e 9;
  Alcotest.(check int) "set_arc_label" 9 (Digraph.arc_label g e);
  Digraph.set_vertex_label g a "z";
  Alcotest.(check string) "set_vertex_label" "z" (Digraph.vertex_label g a)

let test_insertion_order () =
  let g = graph 4 [ (0, 1); (0, 2); (0, 3); (2, 0); (1, 0) ] in
  Alcotest.(check (list int)) "out order" [ 0; 1; 2 ] (Digraph.out_arcs g 0);
  Alcotest.(check (list int)) "in order" [ 3; 4 ] (Digraph.in_arcs g 0)

let test_parallel_arcs () =
  let g = graph 2 [ (0, 1); (0, 1); (1, 1) ] in
  Alcotest.(check int) "parallel arcs kept" 2 (List.length (Digraph.out_arcs g 0));
  Alcotest.(check int) "self loop degree" 1 (Digraph.in_degree g 1 - 2)

let test_invalid () =
  let g = graph 1 [] in
  Alcotest.check_raises "bad src" (Invalid_argument "Digraph.add_arc: unknown vertex 5")
    (fun () -> ignore (Digraph.add_arc g ~src:5 ~dst:0 ()))

let test_find_arc () =
  let g = graph 3 [ (0, 1); (0, 2); (0, 1) ] in
  Alcotest.(check (option int)) "first match" (Some 0) (Digraph.find_arc g ~src:0 ~dst:1);
  Alcotest.(check (option int)) "none" None (Digraph.find_arc g ~src:1 ~dst:0)

let test_reverse () =
  let g = graph 3 [ (0, 1); (1, 2) ] in
  let r = Digraph.reverse g in
  Alcotest.(check (list int)) "reversed succs" [ 0 ] (Digraph.succs r 1);
  Alcotest.(check (list int)) "reversed preds" [ 2 ] (Digraph.preds r 1)

let test_map_labels () =
  let g = Digraph.create () in
  let a = Digraph.add_vertex g 1 in
  let b = Digraph.add_vertex g 2 in
  let e = Digraph.add_arc g ~src:a ~dst:b 10 in
  let g' = Digraph.map_labels ~vertex:string_of_int ~arc:(fun x -> x * 2) g in
  Alcotest.(check string) "vertex label" "2" (Digraph.vertex_label g' b);
  Alcotest.(check int) "arc label" 20 (Digraph.arc_label g' e);
  Alcotest.(check (pair int int)) "same structure" (a, b) (Digraph.arc_ends g' e)

let test_folds () =
  let g = graph 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check int) "fold vertices" 6 (Digraph.fold_vertices ( + ) g 0);
  Alcotest.(check int) "fold arcs" 3 (Digraph.fold_arcs ( + ) g 0);
  Alcotest.(check int) "out degree" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 0 (Digraph.in_degree g 0)

(* ---- traversal ---------------------------------------------------------- *)

let test_dfs_classification () =
  (* 0 -> 1 -> 2 -> 0 (back), 0 -> 2 (forward or cross after 1->2). *)
  let g = graph 3 [ (0, 1); (1, 2); (2, 0); (0, 2) ] in
  let r = Traversal.dfs ~roots:[ 0 ] g in
  Alcotest.(check bool) "tree 0->1" true (r.Traversal.kind.(0) = Traversal.Tree);
  Alcotest.(check bool) "tree 1->2" true (r.Traversal.kind.(1) = Traversal.Tree);
  Alcotest.(check bool) "back 2->0" true (r.Traversal.kind.(2) = Traversal.Back);
  Alcotest.(check bool) "cross 0->2" true (r.Traversal.kind.(3) = Traversal.Forward_or_cross)

let test_back_arcs_break_cycles () =
  let g = graph 4 [ (0, 1); (1, 2); (2, 3); (3, 1); (2, 0) ] in
  let back = Traversal.back_arcs ~roots:[ 0 ] g in
  (* Removing back arcs must leave an acyclic graph. *)
  let g' = Digraph.create () in
  for _ = 1 to 4 do
    ignore (Digraph.add_vertex g' ())
  done;
  Digraph.iter_arcs
    (fun a ->
      if not back.(a) then
        ignore (Digraph.add_arc g' ~src:(Digraph.arc_src g a) ~dst:(Digraph.arc_dst g a) ()))
    g;
  (match Traversal.topological_sort g' with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "back-arc removal left a cycle")

let test_topo_ok () =
  let g = graph 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  match Traversal.topological_sort g with
  | Error _ -> Alcotest.fail "unexpected cycle"
  | Ok order ->
    let pos = Array.make 4 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    Digraph.iter_arcs
      (fun a ->
        Alcotest.(check bool) "arc forward" true
          (pos.(Digraph.arc_src g a) < pos.(Digraph.arc_dst g a)))
      g

let test_topo_cycle () =
  let g = graph 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  match Traversal.topological_sort g with
  | Ok _ -> Alcotest.fail "missed the cycle"
  | Error cycle ->
    (* The reported cycle must be a real directed cycle. *)
    let n = List.length cycle in
    Alcotest.(check bool) "nonempty" true (n > 0);
    let arr = Array.of_list cycle in
    Array.iteri
      (fun i u ->
        let v = arr.((i + 1) mod n) in
        Alcotest.(check bool)
          (Printf.sprintf "arc %d->%d exists" u v)
          true
          (Digraph.find_arc g ~src:u ~dst:v <> None))
      arr

let test_bfs_reachable () =
  let g = graph 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check (list int)) "bfs order" [ 0; 1; 2 ] (Traversal.bfs_order ~roots:[ 0 ] g);
  let r = Traversal.reachable ~from:[ 0 ] g in
  Alcotest.(check (list bool)) "reachable" [ true; true; true; false; false ]
    (Array.to_list r)

(* ---- scc ---------------------------------------------------------------- *)

let test_scc_simple () =
  let g = graph 5 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 3) ] in
  let r = Scc.compute g in
  Alcotest.(check int) "two components" 2 r.Scc.count;
  Alcotest.(check bool) "0,1,2 together" true
    (r.Scc.component.(0) = r.Scc.component.(1) && r.Scc.component.(1) = r.Scc.component.(2));
  Alcotest.(check bool) "3,4 together" true (r.Scc.component.(3) = r.Scc.component.(4));
  (* Reverse-topological numbering: the upstream component has the larger id. *)
  Alcotest.(check bool) "numbering" true (r.Scc.component.(0) > r.Scc.component.(3))

let test_scc_singletons () =
  let g = graph 3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "three singletons" 3 (Scc.compute g).Scc.count;
  Alcotest.(check bool) "not strongly connected" false (Scc.is_strongly_connected g)

let test_scc_ring () =
  let g = graph 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "ring strongly connected" true (Scc.is_strongly_connected g)

let test_condensation () =
  let g = graph 4 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ] in
  let r, q = Scc.condensation g in
  Alcotest.(check int) "quotient vertices" 2 (Digraph.vertex_count q);
  Alcotest.(check int) "quotient arcs" 1 (Digraph.arc_count q);
  let s = Digraph.arc_src q 0 and d = Digraph.arc_dst q 0 in
  Alcotest.(check int) "arc direction" r.Scc.component.(0) s;
  Alcotest.(check int) "arc target" r.Scc.component.(2) d

(* Oracle: brute-force mutual reachability. *)
let scc_oracle g =
  let n = Digraph.vertex_count g in
  let reach = Array.init n (fun v -> Traversal.reachable ~from:[ v ] g) in
  Array.init n (fun v ->
      List.find (fun u -> reach.(u).(v) && reach.(v).(u)) (List.init n Fun.id))

let random_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* m = int_range 0 16 in
    let* arcs = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, arcs))

let prop_scc_vs_brute =
  Helpers.qtest "tarjan agrees with reachability oracle" random_graph_gen
    (fun (n, arcs) ->
      let g = graph n arcs in
      let r = Scc.compute g in
      let oracle = scc_oracle g in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> (r.Scc.component.(u) = r.Scc.component.(v)) = (oracle.(u) = oracle.(v)))
            (List.init n Fun.id))
        (List.init n Fun.id))

let prop_topo_sound =
  Helpers.qtest "topological sort: Ok is sorted, Error is a cycle" random_graph_gen
    (fun (n, arcs) ->
      let g = graph n arcs in
      match Traversal.topological_sort g with
      | Ok order ->
        let pos = Array.make n (-1) in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.length order = n
        && Digraph.fold_arcs
             (fun a ok -> ok && pos.(Digraph.arc_src g a) < pos.(Digraph.arc_dst g a))
             g true
      | Error cycle ->
        let k = List.length cycle in
        k > 0
        &&
        let arr = Array.of_list cycle in
        Array.for_all Fun.id
          (Array.mapi
             (fun i u -> Digraph.find_arc g ~src:u ~dst:arr.((i + 1) mod k) <> None)
             arr))

let prop_back_arc_removal_acyclic =
  Helpers.qtest "removing DFS back arcs leaves a DAG" random_graph_gen (fun (n, arcs) ->
      let g = graph n arcs in
      let back = Traversal.back_arcs g in
      let g' = Digraph.create () in
      for _ = 1 to n do
        ignore (Digraph.add_vertex g' ())
      done;
      Digraph.iter_arcs
        (fun a ->
          if not back.(a) then
            ignore
              (Digraph.add_arc g' ~src:(Digraph.arc_src g a) ~dst:(Digraph.arc_dst g a) ()))
        g;
      match Traversal.topological_sort g' with Ok _ -> true | Error _ -> false)

(* Random scripts of additions, rewires and queries: after every step the
   adjacency, successors, predecessors, degrees and find_arc agree with a
   brute-force filter over the arc ids, so the index is rebuilt whenever a
   change made it stale and rows list arcs in ascending id. *)
type op = Add_vertex | Add_arc of int * int | Rewire of int * int * int | Query

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, return Add_vertex);
        (4, map2 (fun s d -> Add_arc (s, d)) nat nat);
        (2, map3 (fun a s d -> Rewire (a, s, d)) nat nat nat);
        (2, return Query);
      ])

let adjacency_agrees g =
  let n = Digraph.vertex_count g and m = Digraph.arc_count g in
  let ids = List.init m Fun.id in
  List.for_all
    (fun v ->
      let outs = List.filter (fun a -> Digraph.arc_src g a = v) ids in
      let ins = List.filter (fun a -> Digraph.arc_dst g a = v) ids in
      Digraph.out_arcs g v = outs
      && Digraph.in_arcs g v = ins
      && Digraph.succs g v = List.map (Digraph.arc_dst g) outs
      && Digraph.preds g v = List.map (Digraph.arc_src g) ins
      && Digraph.out_degree g v = List.length outs
      && Digraph.in_degree g v = List.length ins
      && List.for_all
           (fun w ->
             Digraph.find_arc g ~src:v ~dst:w
             = List.find_opt (fun a -> Digraph.arc_dst g a = w) outs)
           (List.init n Fun.id))
    (List.init n Fun.id)

let prop_adjacency_vs_brute =
  Helpers.qtest ~count:300 "adjacency equals a filter over arc ids under edits"
    QCheck2.Gen.(list_size (int_range 0 40) op_gen)
    (fun script ->
      let g = Digraph.create () in
      List.for_all
        (fun op ->
          let n = Digraph.vertex_count g and m = Digraph.arc_count g in
          (match op with
           | Add_vertex -> ignore (Digraph.add_vertex g ())
           | Add_arc (s, d) ->
             if n > 0 then ignore (Digraph.add_arc g ~src:(s mod n) ~dst:(d mod n) ())
           | Rewire (a, s, d) ->
             if m > 0 then Digraph.rewire_arc g (a mod m) ~src:(s mod n) ~dst:(d mod n)
           | Query -> ());
          op <> Query || adjacency_agrees g)
        script
      && adjacency_agrees g)

let test_dot () =
  let g = graph 2 [ (0, 1) ] in
  let s =
    Dot.to_string ~name:"t" ~vertex_name:(Printf.sprintf "v%d")
      ~arc_attrs:(fun _ -> [ ("label", "x\"y") ])
      g
  in
  Alcotest.(check bool) "mentions arc" true
    (Astring_contains.contains s "\"v0\" -> \"v1\"");
  Alcotest.(check bool) "escapes quotes" true (Astring_contains.contains s "x\\\"y")

let () =
  Alcotest.run "digraph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs;
          Alcotest.test_case "invalid vertex" `Quick test_invalid;
          Alcotest.test_case "find_arc" `Quick test_find_arc;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "map_labels" `Quick test_map_labels;
          Alcotest.test_case "folds/degrees" `Quick test_folds;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "dfs classification" `Quick test_dfs_classification;
          Alcotest.test_case "back arcs break cycles" `Quick test_back_arcs_break_cycles;
          Alcotest.test_case "topo ok" `Quick test_topo_ok;
          Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
          Alcotest.test_case "bfs/reachable" `Quick test_bfs_reachable;
        ] );
      ( "scc",
        [
          Alcotest.test_case "simple" `Quick test_scc_simple;
          Alcotest.test_case "singletons" `Quick test_scc_singletons;
          Alcotest.test_case "ring" `Quick test_scc_ring;
          Alcotest.test_case "condensation" `Quick test_condensation;
        ] );
      ( "property",
        [
          prop_scc_vs_brute;
          prop_topo_sound;
          prop_back_arc_removal_acyclic;
          prop_adjacency_vs_brute;
        ] );
      ("dot", [ Alcotest.test_case "escaping" `Quick test_dot ]);
    ]
