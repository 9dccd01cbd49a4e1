type result =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let int_eps = 1e-6

let last_nodes = ref 0

let node_count () = !last_nodes

let is_integral v = Float.abs (v -. Float.round v) <= int_eps

let solve ?integer (lp : Lp.t) =
  let integer =
    match integer with Some a -> a | None -> Array.make lp.nvars true
  in
  if Array.length integer <> lp.nvars then
    invalid_arg "Branch_bound.solve: integer mask length mismatch";
  Ermes_obs.Obs.span "ilp.solve" @@ fun () ->
  let better =
    match lp.objective with
    | Lp.Maximize -> fun a b -> a > b +. 1e-9
    | Lp.Minimize -> fun a b -> a < b -. 1e-9
  in
  let incumbent = ref None in
  let nodes = ref 1 in
  let pivots0 = Simplex.pivots () in
  (* [t] is the node's optimal tableau; each child copies it with one more
     bound row and re-optimizes from there. *)
  let rec explore t =
    let x, objective = Simplex.point t in
    let dominated =
      match !incumbent with
      | Some (_, best) -> not (better objective best)
      | None -> false
    in
    if not dominated then begin
      (* Most fractional integer variable. *)
      let branch_var = ref (-1) in
      let branch_score = ref 0. in
      Array.iteri
        (fun i v ->
          if integer.(i) && not (is_integral v) then begin
            let frac = Float.abs (v -. Float.round v) in
            if frac > !branch_score then begin
              branch_score := frac;
              branch_var := i
            end
          end)
        x;
      if !branch_var < 0 then
        (* Integral on all integer variables: new incumbent. *)
        incumbent := Some (x, objective)
      else begin
        let i = !branch_var in
        let fl = Float.of_int (int_of_float (Float.floor (x.(i) +. int_eps))) in
        (* Rounded-up child first: on one-of-each binaries it fixes a whole
           group per level, so a first incumbent comes within one level per
           group and the bound starts pruning early. *)
        List.iter
          (fun bound ->
            incr nodes;
            Option.iter explore (Simplex.add_row t bound))
          [ Lp.row [ (i, 1.) ] Lp.Ge (fl +. 1.); Lp.row [ (i, 1.) ] Lp.Le fl ]
      end
    end
  in
  let result =
    match Simplex.solve_tableau lp with
    | `Infeasible -> Infeasible
    | `Unbounded -> Unbounded
    | `Optimal root -> (
      explore root;
      match !incumbent with
      | None -> Infeasible
      | Some (x, objective) -> Optimal { x; objective })
  in
  last_nodes := !nodes;
  Ermes_obs.Obs.incr "ilp.solves";
  Ermes_obs.Obs.incr ~by:!nodes "ilp.nodes";
  Ermes_obs.Obs.incr ~by:(Simplex.pivots () - pivots0) "ilp.pivots";
  result

let int_solution x =
  Array.mapi
    (fun i v ->
      if is_integral v then int_of_float (Float.round v)
      else
        invalid_arg
          (Printf.sprintf "Branch_bound.int_solution: entry %d is fractional (%g)" i v))
    x
