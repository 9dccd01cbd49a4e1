module Lp = Ermes_ilp.Lp
module Simplex = Ermes_ilp.Simplex
module Branch_bound = Ermes_ilp.Branch_bound
module Knapsack = Ermes_support.Knapsack

let feps = 1e-6

let check_optimal msg expected = function
  | Simplex.Optimal { objective; _ } -> Alcotest.(check (float feps)) msg expected objective
  | Simplex.Infeasible -> Alcotest.fail (msg ^ ": infeasible")
  | Simplex.Unbounded -> Alcotest.fail (msg ^ ": unbounded")

(* ---- Lp ------------------------------------------------------------------ *)

let test_lp_validation () =
  Alcotest.check_raises "out of range" (Invalid_argument "Lp: variable 3 out of range [0,2)")
    (fun () -> ignore (Lp.make Lp.Maximize [| 1.; 1. |] [ Lp.row [ (3, 1.) ] Lp.Le 1. ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Lp: variable 0 repeated in a row")
    (fun () ->
      ignore (Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 1.); (0, 2.) ] Lp.Le 1. ]))

let test_lp_feasible () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.; Lp.row [ (0, 1.) ] Lp.Ge 1. ]
  in
  Alcotest.(check bool) "feasible point" true (Lp.feasible lp [| 1.; 0.5 |]);
  Alcotest.(check bool) "violates row" false (Lp.feasible lp [| 2.; 1. |]);
  Alcotest.(check bool) "negative var" false (Lp.feasible lp [| 1.5; -0.5 |]);
  Alcotest.(check (float feps)) "objective" 1.5 (Lp.objective_value lp [| 1.; 0.5 |])

(* ---- simplex ------------------------------------------------------------- *)

let test_simplex_textbook () =
  (* max x+y st x+2y<=4, 3x+y<=6: optimum 2.8 at (1.6, 1.2). *)
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  (match Simplex.solve lp with
   | Simplex.Optimal { x; objective } ->
     Alcotest.(check (float feps)) "objective" 2.8 objective;
     Alcotest.(check (float feps)) "x0" 1.6 x.(0);
     Alcotest.(check (float feps)) "x1" 1.2 x.(1)
   | _ -> Alcotest.fail "expected optimum")

let test_simplex_minimize () =
  let lp = Lp.make Lp.Minimize [| 2.; 3. |] [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Ge 4. ] in
  check_optimal "minimize" 8. (Simplex.solve lp)

let test_simplex_equality () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 0. |]
      [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Eq 2.; Lp.row [ (1, 1.) ] Lp.Le 0.5 ]
  in
  check_optimal "equality" 2. (Simplex.solve lp)

let test_simplex_infeasible () =
  let lp =
    Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 1.) ] Lp.Le 1.; Lp.row [ (0, 1.) ] Lp.Ge 2. ]
  in
  (match Simplex.solve lp with
   | Simplex.Infeasible -> ()
   | _ -> Alcotest.fail "expected infeasible")

let test_simplex_unbounded () =
  let lp = Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, -1.) ] Lp.Le 0. ] in
  match Simplex.solve lp with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_degenerate () =
  (* Degenerate vertex (three constraints through one point): Bland's rule
     must still terminate. *)
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [
        Lp.row [ (0, 1.) ] Lp.Le 1.;
        Lp.row [ (1, 1.) ] Lp.Le 1.;
        Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.;
      ]
  in
  check_optimal "degenerate" 2. (Simplex.solve lp)

let test_simplex_negative_rhs () =
  (* Row with negative rhs: -x <= -2 means x >= 2. *)
  let lp = Lp.make Lp.Minimize [| 1. |] [ Lp.row [ (0, -1.) ] Lp.Le (-2.) ] in
  check_optimal "negative rhs" 2. (Simplex.solve lp)

(* Property: simplex solutions are feasible and (on random bounded problems)
   never beaten by random feasible points. *)
let random_lp_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 4 in
    let* nrows = int_range 1 4 in
    let* costs = list_repeat nvars (int_range (-5) 5) in
    let* rows =
      list_repeat nrows
        (pair (list_repeat nvars (int_range 0 4)) (int_range 1 10))
    in
    (* All coefficients >= 0 and Le rows with positive rhs: always feasible
       (origin) and bounded whenever some cost > 0 has a positive column...
       boundedness is guaranteed by adding a box row below. *)
    return (costs, rows))

let prop_simplex_sound =
  Helpers.qtest ~count:300 "simplex optimum is feasible and dominates corners"
    random_lp_gen (fun (costs, rows) ->
      let nvars = List.length costs in
      let lp_rows =
        List.map
          (fun (coeffs, rhs) ->
            Lp.row (List.mapi (fun i c -> (i, float_of_int c)) coeffs) Lp.Le
              (float_of_int rhs))
          rows
        (* Box: x_i <= 20 keeps everything bounded. *)
        @ List.init nvars (fun i -> Lp.row [ (i, 1.) ] Lp.Le 20.)
      in
      let lp =
        Lp.make Lp.Maximize (Array.of_list (List.map float_of_int costs)) lp_rows
      in
      match Simplex.solve lp with
      | Simplex.Optimal { x; objective } ->
        Lp.feasible lp x
        && Float.abs (Lp.objective_value lp x -. objective) < 1e-6
        (* The origin is feasible, so the optimum is at least 0 when
           maximizing over it... only if all costs <= 0 the optimum is 0. *)
        && objective >= Lp.objective_value lp (Array.make nvars 0.) -. 1e-9
      | Simplex.Infeasible | Simplex.Unbounded -> false)

(* ---- branch and bound ----------------------------------------------------- *)

let test_bb_textbook () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  match Branch_bound.solve lp with
  | Branch_bound.Optimal { x; objective } ->
    Alcotest.(check (float feps)) "objective" 2. objective;
    let xi = Branch_bound.int_solution x in
    Alcotest.(check int) "integral" 2 (xi.(0) + xi.(1))
  | _ -> Alcotest.fail "expected optimum"

let test_bb_infeasible () =
  (* 2x = 1 has no integer solution. *)
  let lp = Lp.make Lp.Maximize [| 1. |] [ Lp.row [ (0, 2.) ] Lp.Eq 1. ] in
  match Branch_bound.solve lp with
  | Branch_bound.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_bb_mixed () =
  (* x integer, y continuous: max x + y st x + y <= 2.5. *)
  let lp = Lp.make Lp.Maximize [| 1.; 1. |] [ Lp.row [ (0, 1.); (1, 1.) ] Lp.Le 2.5 ] in
  match Branch_bound.solve ~integer:[| true; false |] lp with
  | Branch_bound.Optimal { x; objective } ->
    Alcotest.(check (float feps)) "mixed objective" 2.5 objective;
    (* The integer variable is integral, the continuous one need not be. *)
    Alcotest.(check (float 1e-6)) "x0 integral" (Float.round x.(0)) x.(0)
  | _ -> Alcotest.fail "expected optimum"

(* Property: B&B on one-of-each + budget problems equals the DP knapsack. *)
let mckp_gen =
  QCheck2.Gen.(
    let* groups = int_range 1 4 in
    let* spec =
      list_repeat groups
        (list_size (int_range 1 4) (pair (int_range 0 8) (int_range 0 9)))
    in
    let* capacity = int_range 0 16 in
    return (spec, capacity))

let solve_mckp_ilp spec capacity =
  let nvars = List.fold_left (fun acc g -> acc + List.length g) 0 spec in
  let costs = Array.make nvars 0. in
  let weights = Array.make nvars 0. in
  let rows = ref [] in
  let next = ref 0 in
  List.iter
    (fun group ->
      let vars =
        List.map
          (fun (w, v) ->
            let id = !next in
            incr next;
            costs.(id) <- float_of_int v;
            weights.(id) <- float_of_int w;
            id)
          group
      in
      rows := Lp.row (List.map (fun id -> (id, 1.)) vars) Lp.Eq 1. :: !rows)
    spec;
  let budget = Lp.row (List.init nvars (fun i -> (i, weights.(i)))) Lp.Le (float_of_int capacity) in
  let lp = Lp.make Lp.Maximize costs (budget :: !rows) in
  match Branch_bound.solve lp with
  | Branch_bound.Optimal { objective; _ } -> Some (int_of_float (Float.round objective))
  | Branch_bound.Infeasible -> None
  | Branch_bound.Unbounded -> None

let prop_bb_vs_dp =
  Helpers.qtest ~count:200 "branch-and-bound equals DP on multiple-choice knapsacks"
    mckp_gen (fun (spec, capacity) ->
      let groups =
        Array.of_list
          (List.map
             (fun g -> Array.of_list (List.map (fun (w, v) -> { Knapsack.weight = w; value = v }) g))
             spec)
      in
      let dp = Knapsack.multiple_choice ~groups ~capacity in
      let ilp = solve_mckp_ilp spec capacity in
      match (dp, ilp) with
      | Some (v, _), Some v' -> v = v'
      | None, None -> true
      | _ -> false)

(* Brute force: the best feasible point among [candidates], which must
   contain every integer point of [lp]'s feasible region. Branch and bound
   must agree on infeasibility and on the optimum, and return an integral,
   feasible [x] that attains its objective. *)
let agrees_with_enumeration lp candidates =
  let better a b =
    match lp.Lp.objective with Lp.Maximize -> a > b | Lp.Minimize -> a < b
  in
  let best =
    List.fold_left
      (fun acc x ->
        if not (Lp.feasible lp x) then acc
        else
          let v = Lp.objective_value lp x in
          match acc with Some b when not (better v b) -> acc | _ -> Some v)
      None candidates
  in
  match (Branch_bound.solve lp, best) with
  | Branch_bound.Infeasible, None -> true
  | Branch_bound.Optimal { x; objective }, Some b ->
    Float.abs (objective -. b) <= 1e-6
    && Float.abs (Lp.objective_value lp x -. objective) <= 1e-6
    && Array.for_all (fun v -> Float.abs (v -. Float.round v) <= 1e-6) x
    && Lp.feasible lp x
  | _ -> false

let objective_gen = QCheck2.Gen.oneofl [ Lp.Maximize; Lp.Minimize ]

(* Shaped like Ilp_select's problems: groups of binaries with one-of-each
   equality rows, plus signed budget rows of either sense. *)
let selection_gen =
  QCheck2.Gen.(
    let* sizes = list_size (int_range 1 5) (int_range 1 5) in
    let nvars = List.fold_left ( + ) 0 sizes in
    let* costs = array_repeat nvars (float_range (-10.) 10.) in
    let* budgets =
      list_size (int_range 1 2)
        (triple (list_repeat nvars (int_range (-9) 9)) (oneofl [ Lp.Le; Lp.Ge ])
           (int_range (-20) 20))
    in
    let* objective = objective_gen in
    return (sizes, costs, budgets, objective))

let prop_bb_selection =
  Helpers.qtest ~count:1000 "branch-and-bound equals enumeration on selection ILPs"
    selection_gen (fun (sizes, costs, budgets, objective) ->
      let nvars = Array.length costs in
      let groups =
        List.rev
          (snd
             (List.fold_left
                (fun (first, acc) k -> (first + k, List.init k (fun i -> first + i) :: acc))
                (0, []) sizes))
      in
      let one_of_each = List.map (fun g -> Lp.row (List.map (fun v -> (v, 1.)) g) Lp.Eq 1.) groups in
      let budget_rows =
        List.map
          (fun (coeffs, op, rhs) ->
            Lp.row (List.mapi (fun v c -> (v, float_of_int c)) coeffs) op (float_of_int rhs))
          budgets
      in
      let lp = Lp.make objective costs (budget_rows @ one_of_each) in
      (* Every one-of-each choice, as a 0/1 point. *)
      let choices =
        List.fold_left
          (fun partial g -> List.concat_map (fun p -> List.map (fun v -> v :: p) g) partial)
          [ [] ] groups
      in
      agrees_with_enumeration lp
        (List.map
           (fun chosen ->
             let x = Array.make nvars 0. in
             List.iter (fun v -> x.(v) <- 1.) chosen;
             x)
           choices))

(* General integers in a [0,3] box under rows of all three senses. *)
let box_gen =
  QCheck2.Gen.(
    let* nvars = int_range 1 3 in
    let* costs = array_repeat nvars (float_range (-5.) 5.) in
    let* rows =
      list_size (int_range 1 3)
        (triple (list_repeat nvars (int_range (-3) 3)) (oneofl [ Lp.Le; Lp.Ge; Lp.Eq ])
           (int_range (-6) 9))
    in
    let* objective = objective_gen in
    return (costs, rows, objective))

let prop_bb_box =
  Helpers.qtest ~count:300 "branch-and-bound equals enumeration on boxed integer programs"
    box_gen (fun (costs, rows, objective) ->
      let nvars = Array.length costs in
      let lp =
        Lp.make objective costs
          (List.map
             (fun (coeffs, op, rhs) ->
               Lp.row (List.mapi (fun v c -> (v, float_of_int c)) coeffs) op (float_of_int rhs))
             rows
          @ List.init nvars (fun v -> Lp.row [ (v, 1.) ] Lp.Le 3.))
      in
      let points =
        List.fold_left
          (fun partial _ -> List.concat_map (fun p -> List.init 4 (fun k -> float_of_int k :: p)) partial)
          [ [] ] (Array.to_list costs)
      in
      agrees_with_enumeration lp (List.map Array.of_list points))

let test_bb_node_count () =
  let lp =
    Lp.make Lp.Maximize [| 1.; 1. |]
      [ Lp.row [ (0, 1.); (1, 2.) ] Lp.Le 4.; Lp.row [ (0, 3.); (1, 1.) ] Lp.Le 6. ]
  in
  (match Branch_bound.solve lp with Branch_bound.Optimal _ -> () | _ -> Alcotest.fail "opt");
  Alcotest.(check bool) "explored nodes" true (Branch_bound.node_count () >= 1)

let test_simplex_redundant_equalities () =
  (* Two identical equality rows: phase 1 leaves a basic artificial in a
     redundant row; phase 2 must still solve. *)
  let lp =
    Lp.make Lp.Maximize [| 1. |]
      [ Lp.row [ (0, 1.) ] Lp.Eq 2.; Lp.row [ (0, 1.) ] Lp.Eq 2. ]
  in
  check_optimal "redundant equalities" 2. (Simplex.solve lp)

let test_lp_pp_smoke () =
  let lp = Lp.make Lp.Minimize [| 2.; 0. |] [ Lp.row [ (0, 1.); (1, -1.) ] Lp.Ge 3. ] in
  let text = Format.asprintf "%a" Lp.pp lp in
  Alcotest.(check bool) "mentions minimize" true (Astring_contains.contains text "minimize");
  Alcotest.(check bool) "mentions row" true (Astring_contains.contains text ">= 3")

(* ---- knapsack ------------------------------------------------------------ *)

let test_knapsack_01 () =
  let items =
    [| { Knapsack.weight = 2; value = 3 }; { weight = 3; value = 4 }; { weight = 4; value = 5 } |]
  in
  let v, chosen = Knapsack.zero_one ~items ~capacity:5 in
  Alcotest.(check int) "value" 7 v;
  Alcotest.(check (list bool)) "chosen" [ true; true; false ] (Array.to_list chosen)

let test_knapsack_01_zero_capacity () =
  let items = [| { Knapsack.weight = 1; value = 5 } |] in
  let v, chosen = Knapsack.zero_one ~items ~capacity:0 in
  Alcotest.(check int) "value" 0 v;
  Alcotest.(check (list bool)) "nothing" [ false ] (Array.to_list chosen)

let test_mckp () =
  let groups =
    [|
      [| { Knapsack.weight = 3; value = 10 }; { weight = 1; value = 4 } |];
      [| { Knapsack.weight = 2; value = 7 }; { weight = 5; value = 20 } |];
    |]
  in
  (match Knapsack.multiple_choice ~groups ~capacity:5 with
   | Some (v, choice) ->
     Alcotest.(check int) "value" 17 v;
     Alcotest.(check (list int)) "choice" [ 0; 0 ] (Array.to_list choice)
   | None -> Alcotest.fail "expected a solution");
  (* Capacity too small for any selection. *)
  match Knapsack.multiple_choice ~groups ~capacity:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None"

let test_mckp_negative_values () =
  (* Negative values are legal (area gains can be negative). *)
  let groups = [| [| { Knapsack.weight = 0; value = -5 }; { weight = 3; value = -1 } |] |] in
  match Knapsack.multiple_choice ~groups ~capacity:2 with
  | Some (v, choice) ->
    Alcotest.(check int) "picks least bad feasible" (-5) v;
    Alcotest.(check (list int)) "choice" [ 0 ] (Array.to_list choice)
  | None -> Alcotest.fail "expected a solution"

let brute_mckp groups capacity =
  let n = Array.length groups in
  let best = ref None in
  let rec go i weight value =
    if weight > capacity then ()
    else if i = n then
      match !best with
      | Some b when b >= value -> ()
      | _ -> best := Some value
    else
      Array.iter (fun it -> go (i + 1) (weight + it.Knapsack.weight) (value + it.Knapsack.value)) groups.(i)
  in
  go 0 0 0;
  !best

let prop_mckp_vs_brute =
  Helpers.qtest ~count:300 "DP knapsack equals brute force" mckp_gen
    (fun (spec, capacity) ->
      let groups =
        Array.of_list
          (List.map
             (fun g -> Array.of_list (List.map (fun (w, v) -> { Knapsack.weight = w; value = v }) g))
             spec)
      in
      match (Knapsack.multiple_choice ~groups ~capacity, brute_mckp groups capacity) with
      | Some (v, choice), Some b ->
        v = b
        && Array.length choice = Array.length groups
        &&
        let w = ref 0 and value = ref 0 in
        Array.iteri
          (fun g i ->
            w := !w + groups.(g).(i).Knapsack.weight;
            value := !value + groups.(g).(i).Knapsack.value)
          choice;
        !w <= capacity && !value = v
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "ilp"
    [
      ( "lp",
        [
          Alcotest.test_case "validation" `Quick test_lp_validation;
          Alcotest.test_case "feasible" `Quick test_lp_feasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook" `Quick test_simplex_textbook;
          Alcotest.test_case "minimize" `Quick test_simplex_minimize;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "redundant equalities" `Quick test_simplex_redundant_equalities;
          Alcotest.test_case "pp smoke" `Quick test_lp_pp_smoke;
        ] );
      ( "branch-and-bound",
        [
          Alcotest.test_case "textbook" `Quick test_bb_textbook;
          Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
          Alcotest.test_case "mixed integer" `Quick test_bb_mixed;
          Alcotest.test_case "node count" `Quick test_bb_node_count;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "0/1" `Quick test_knapsack_01;
          Alcotest.test_case "0/1 zero capacity" `Quick test_knapsack_01_zero_capacity;
          Alcotest.test_case "multiple choice" `Quick test_mckp;
          Alcotest.test_case "negative values" `Quick test_mckp_negative_values;
        ] );
      ( "property",
        [ prop_simplex_sound; prop_bb_vs_dp; prop_bb_selection; prop_bb_box; prop_mckp_vs_brute ] );
    ]
