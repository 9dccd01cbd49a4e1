type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Dense tableau: [m] constraint rows over [ncols] columns plus a rhs column;
   [basis.(i)] is the column basic in row [i]. [d] is the reduced-cost row of
   the objective being maximized ([d.(ncols)] is its value), priced once per
   phase and updated by every pivot. The exploration's LPs on MPEG-2 reach
   243 variables and 29 rows, and a reduced cost recomputed from the basis
   costs O(m): pricing reads [d] instead. *)
type tableau = {
  nvars : int;  (* the structural columns are [0 .. nvars-1] *)
  sign : float;  (* 1. to maximize the user objective, -1. to minimize it *)
  m : int;
  ncols : int;
  a : float array array;  (* m x (ncols + 1); last column is rhs *)
  d : float array;  (* ncols + 1 *)
  basis : int array;
}

(* Pivots performed by this domain, so that a caller can count its own. *)
let pivot_count = Domain.DLS.new_key (fun () -> ref 0)

let pivots () = !(Domain.DLS.get pivot_count)

(* [row] -= [f] * [pr], over the columns and the rhs. *)
let eliminate row f pr =
  if f <> 0. then
    for j = 0 to Array.length pr - 1 do
      row.(j) <- row.(j) -. (f *. pr.(j))
    done

let pivot t ~row ~col =
  incr (Domain.DLS.get pivot_count);
  let pr = t.a.(row) in
  let pv = pr.(col) in
  for j = 0 to t.ncols do
    pr.(j) <- pr.(j) /. pv
  done;
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.a.(i) t.a.(i).(col) pr
  done;
  eliminate t.d t.d.(col) pr;
  t.basis.(row) <- col

(* Reduced costs of maximizing [c.x] in the current basis. *)
let price t c =
  Array.iteri (fun j cj -> t.d.(j) <- -.cj) c;
  t.d.(t.ncols) <- 0.;
  Array.iteri (fun i b -> eliminate t.d (-.c.(b)) t.a.(i)) t.basis

(* Primal simplex from a feasible basis, with Bland's rule: entering =
   smallest column with negative reduced cost; leaving = ratio test, ties
   broken by smallest basis column. Returns [false] on unboundedness. *)
let rec primal t =
  let col = ref (-1) and j = ref 0 in
  while !col < 0 && !j < t.ncols do
    if t.d.(!j) < -.eps then col := !j;
    incr j
  done;
  if !col < 0 then true
  else begin
    let col = !col in
    let best = ref (-1) in
    let best_ratio = ref infinity in
    for i = 0 to t.m - 1 do
      let aij = t.a.(i).(col) in
      if aij > eps then begin
        let ratio = t.a.(i).(t.ncols) /. aij in
        if
          ratio < !best_ratio -. eps
          || (ratio < !best_ratio +. eps && (!best < 0 || t.basis.(i) < t.basis.(!best)))
        then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    !best >= 0 && (pivot t ~row:!best ~col; primal t)
  end

(* Dual simplex from a dual-feasible basis (every reduced cost >= 0):
   leaving = the negative rhs whose basic column is smallest; entering = the
   minimum ratio d_j / -a_rj over a_rj < 0, ties broken by smallest column.
   Returns [false] when a row proves the LP infeasible. *)
let rec dual t =
  let row = ref (-1) in
  for i = 0 to t.m - 1 do
    if t.a.(i).(t.ncols) < -.eps && (!row < 0 || t.basis.(i) < t.basis.(!row)) then row := i
  done;
  !row < 0
  ||
  let r = t.a.(!row) in
  let col = ref (-1) and best = ref infinity in
  for j = 0 to t.ncols - 1 do
    if r.(j) < -.eps then begin
      let ratio = t.d.(j) /. -.r.(j) in
      if ratio < !best -. eps then begin
        col := j;
        best := ratio
      end
    end
  done;
  !col >= 0 && (pivot t ~row:!row ~col:!col; dual t)

let solve_tableau (lp : Lp.t) =
  let rows = Array.of_list lp.rows in
  let m = Array.length rows in
  (* Normalize every row to non-negative rhs, then count extra columns:
     Le -> slack; Ge -> surplus + artificial; Eq -> artificial. *)
  let normalized =
    Array.map
      (fun (r : Lp.row) ->
        if r.rhs < 0. then
          let coeffs = List.map (fun (i, c) -> (i, -.c)) r.coeffs in
          let op = match r.op with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq in
          { Lp.coeffs; op; rhs = -.r.rhs }
        else r)
      rows
  in
  let n = lp.nvars in
  let nslack =
    Array.fold_left
      (fun acc (r : Lp.row) -> match r.op with Lp.Le | Lp.Ge -> acc + 1 | Lp.Eq -> acc)
      0 normalized
  in
  let nartif =
    Array.fold_left
      (fun acc (r : Lp.row) -> match r.op with Lp.Ge | Lp.Eq -> acc + 1 | Lp.Le -> acc)
      0 normalized
  in
  let ncols = n + nslack + nartif in
  let a = Array.make_matrix m (ncols + 1) 0. in
  let basis = Array.make m (-1) in
  let slack_next = ref n in
  let artif_next = ref (n + nslack) in
  let artificials = ref [] in
  Array.iteri
    (fun i (r : Lp.row) ->
      List.iter (fun (j, c) -> a.(i).(j) <- c) r.coeffs;
      a.(i).(ncols) <- r.rhs;
      (match r.op with
       | Lp.Le ->
         a.(i).(!slack_next) <- 1.;
         basis.(i) <- !slack_next;
         incr slack_next
       | Lp.Ge ->
         a.(i).(!slack_next) <- -1.;
         incr slack_next;
         a.(i).(!artif_next) <- 1.;
         basis.(i) <- !artif_next;
         artificials := !artif_next :: !artificials;
         incr artif_next
       | Lp.Eq ->
         a.(i).(!artif_next) <- 1.;
         basis.(i) <- !artif_next;
         artificials := !artif_next :: !artificials;
         incr artif_next))
    normalized;
  let sign = match lp.objective with Lp.Maximize -> 1. | Lp.Minimize -> -1. in
  let t = { nvars = n; sign; m; ncols; a; basis; d = Array.make (ncols + 1) 0. } in
  (* Phase 1: maximize minus the sum of artificials. Its objective is bounded
     by 0, so [primal] cannot report unboundedness here. *)
  let feasible =
    !artificials = []
    ||
    let c1 = Array.make ncols 0. in
    List.iter (fun j -> c1.(j) <- -1.) !artificials;
    price t c1;
    ignore (primal t);
    t.d.(ncols) >= -1e-7
  in
  if not feasible then `Infeasible
  else begin
    (* Pivot any still-basic artificial out on a structural column; a row
       with no such column is redundant and can stay (its rhs is zero). *)
    let is_artificial = Array.make ncols false in
    List.iter (fun j -> is_artificial.(j) <- true) !artificials;
    for i = 0 to m - 1 do
      if is_artificial.(t.basis.(i)) then begin
        let j = ref 0 and found = ref false in
        while (not !found) && !j < n + nslack do
          if Float.abs t.a.(i).(!j) > eps then begin
            pivot t ~row:i ~col:!j;
            found := true
          end;
          incr j
        done
      end
    done;
    (* Phase 2: artificial columns must never re-enter. Zero them out of the
       tableau entirely and give them zero cost: a zero column has zero
       reduced cost, is never selected as entering (strictly negative reduced
       cost required), and an artificial left basic in a redundant row sits
       harmlessly at level zero. *)
    for i = 0 to m - 1 do
      List.iter (fun j -> t.a.(i).(j) <- 0.) !artificials
    done;
    let c2 = Array.make ncols 0. in
    Array.iteri (fun j c -> c2.(j) <- sign *. c) lp.costs;
    price t c2;
    if primal t then `Optimal t else `Unbounded
  end

let point t =
  let x = Array.make t.nvars 0. in
  for i = 0 to t.m - 1 do
    if t.basis.(i) < t.nvars then x.(t.basis.(i)) <- t.a.(i).(t.ncols)
  done;
  (* Clamp tiny negatives produced by roundoff. *)
  Array.iteri (fun i v -> if v < 0. && v > -1e-7 then x.(i) <- 0.) x;
  (x, t.sign *. t.d.(t.ncols))

let rec add_row t (r : Lp.row) =
  match r.op with
  | Lp.Eq -> Option.bind (add_row t { r with op = Lp.Le }) (fun t -> add_row t { r with op = Lp.Ge })
  | Lp.Le | Lp.Ge ->
    (* Every row gains the new slack column [s], zero outside the new row. *)
    let s = t.ncols in
    let widen row =
      let w = Array.make (s + 2) 0. in
      Array.blit row 0 w 0 s;
      w.(s + 1) <- row.(s);
      w
    in
    (* [sgn * coeffs.x + x_s = sgn * rhs] with [x_s >= 0]. *)
    let sgn = match r.op with Lp.Ge -> -1. | Lp.Le | Lp.Eq -> 1. in
    let fresh = Array.make (s + 2) 0. in
    List.iter
      (fun (j, c) ->
        if j < 0 || j >= t.nvars then
          invalid_arg (Printf.sprintf "Simplex.add_row: variable %d out of range [0,%d)" j t.nvars);
        fresh.(j) <- sgn *. c)
      r.coeffs;
    fresh.(s) <- 1.;
    fresh.(s + 1) <- sgn *. r.rhs;
    let a = Array.map widen t.a in
    (* Write it in the current basis: cancel every basic column. *)
    Array.iteri (fun i b -> eliminate fresh fresh.(b) a.(i)) t.basis;
    let t =
      {
        t with
        m = t.m + 1;
        ncols = s + 1;
        a = Array.append a [| fresh |];
        d = widen t.d;
        basis = Array.append t.basis [| s |];
      }
    in
    (* The dual simplex restores primal feasibility; the primal pass only
       repairs reduced costs that roundoff pushed below zero. *)
    if dual t then (ignore (primal t); Some t) else None

let solve lp =
  match solve_tableau lp with
  | `Infeasible -> Infeasible
  | `Unbounded -> Unbounded
  | `Optimal t ->
    let x, objective = point t in
    Optimal { x; objective }
