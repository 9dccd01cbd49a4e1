module Obs = Ermes_obs.Obs

type t = {
  n : int;
  m : int;
  delay : int array;
  weight : int array;
  tokens : int array;
  src : int array;
  dst : int array;
  out_row : int array;
  out_adj : int array;
  in_row : int array;
  in_adj : int array;
  tname : string array;
  pname : string array;
}

let log_src = Logs.Src.create "ermes.csr" ~doc:"flat CSR analysis core"

module Log = (val Logs.src_log log_src)

(* ------------------------------------------------------------------ *)
(* Freeze / thaw                                                       *)
(* ------------------------------------------------------------------ *)

(* Rebuild both adjacency directions by counting sort over place ids, so each
   row lists its places in ascending id order — the same per-vertex order a
   freshly built Digraph has. Rebuilding after rewires from place-id order
   keeps every result independent of the rewiring history. *)
let rebuild_adjacency (g : t) =
  let n = g.n and m = g.m in
  Array.fill g.out_row 0 (n + 1) 0;
  Array.fill g.in_row 0 (n + 1) 0;
  for p = 0 to m - 1 do
    g.out_row.(g.src.(p) + 1) <- g.out_row.(g.src.(p) + 1) + 1;
    g.in_row.(g.dst.(p) + 1) <- g.in_row.(g.dst.(p) + 1) + 1
  done;
  for v = 1 to n do
    g.out_row.(v) <- g.out_row.(v) + g.out_row.(v - 1);
    g.in_row.(v) <- g.in_row.(v) + g.in_row.(v - 1)
  done;
  (* Fill ascending: temporary cursors live in the adj arrays' tail positions
     would be unsafe, so use two small cursor arrays. *)
  let ocur = Array.make (max n 1) 0 and icur = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    ocur.(v) <- g.out_row.(v);
    icur.(v) <- g.in_row.(v)
  done;
  for p = 0 to m - 1 do
    g.out_adj.(ocur.(g.src.(p))) <- p;
    ocur.(g.src.(p)) <- ocur.(g.src.(p)) + 1;
    g.in_adj.(icur.(g.dst.(p))) <- p;
    icur.(g.dst.(p)) <- icur.(g.dst.(p)) + 1
  done

let arena_words (g : t) =
  Array.length g.delay + Array.length g.weight + Array.length g.tokens
  + Array.length g.src + Array.length g.dst + Array.length g.out_row
  + Array.length g.out_adj + Array.length g.in_row + Array.length g.in_adj

let of_tmg tmg =
  Obs.span "csr.freeze" @@ fun () ->
  let n = Tmg.transition_count tmg and m = Tmg.place_count tmg in
  let g =
    {
      n;
      m;
      delay = Array.make (max n 1) 0;
      weight = Array.make (max m 1) 0;
      tokens = Array.make (max m 1) 0;
      src = Array.make (max m 1) 0;
      dst = Array.make (max m 1) 0;
      out_row = Array.make (n + 1) 0;
      out_adj = Array.make (max m 1) 0;
      in_row = Array.make (n + 1) 0;
      in_adj = Array.make (max m 1) 0;
      tname = Array.make (max n 1) "";
      pname = Array.make (max m 1) "";
    }
  in
  for v = 0 to n - 1 do
    g.delay.(v) <- Tmg.delay tmg v;
    g.tname.(v) <- Tmg.transition_name tmg v
  done;
  for p = 0 to m - 1 do
    g.src.(p) <- Tmg.place_src tmg p;
    g.dst.(p) <- Tmg.place_dst tmg p;
    g.tokens.(p) <- Tmg.tokens tmg p;
    g.weight.(p) <- g.delay.(g.dst.(p));
    g.pname.(p) <- Tmg.place_name tmg p
  done;
  rebuild_adjacency g;
  Obs.incr "csr.freeze";
  Obs.incr ~by:(arena_words g) "csr.arena.words";
  g

let to_tmg (g : t) =
  let tmg = Tmg.create () in
  for v = 0 to g.n - 1 do
    ignore (Tmg.add_transition tmg ~name:g.tname.(v) ~delay:g.delay.(v) ())
  done;
  for p = 0 to g.m - 1 do
    ignore
      (Tmg.add_place tmg ~name:g.pname.(p) ~src:g.src.(p) ~dst:g.dst.(p)
         ~tokens:g.tokens.(p) ())
  done;
  tmg

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan over the CSR adjacency                             *)
(* ------------------------------------------------------------------ *)

type components = { comp : int array; comp_count : int }

(* Same visit order as Scc.compute on a freshly built net (roots 0..n-1,
   successors in ascending place-id order), hence the same reverse-topological
   component numbering; all stacks are flat int arrays. *)
let strongly_connected (g : t) =
  let n = g.n in
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let comp = Array.make (max n 1) (-1) in
  let stack = Array.make (max n 1) 0 in
  let sp = ref 0 in
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
    frame_it.(!fp) <- g.out_row.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      push_frame root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) in
        if frame_it.(f) < g.out_row.(v + 1) then begin
          let w = g.dst.(g.out_adj.(frame_it.(f))) in
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
              comp.(w) <- !comp_count;
              if w = v then continue_pop := false
            done;
            incr comp_count
          end
        end
      done
    end
  done;
  { comp = (if n = 0 then [||] else comp); comp_count = !comp_count }

(* Bucket transitions by component via counting sort: component [c] is
   [members.(row.(c)) .. members.(row.(c+1) - 1)], ascending vertex id within
   each component, components in ascending id order — the same shape
   Scc.components yields. *)
let component_members (g : t) { comp; comp_count } =
  let row = Array.make (comp_count + 1) 0 in
  for v = 0 to g.n - 1 do
    row.(comp.(v) + 1) <- row.(comp.(v) + 1) + 1
  done;
  for c = 1 to comp_count do
    row.(c) <- row.(c) + row.(c - 1)
  done;
  let members = Array.make (max g.n 1) 0 in
  let cur = Array.copy row in
  for v = 0 to g.n - 1 do
    members.(cur.(comp.(v))) <- v;
    cur.(comp.(v)) <- cur.(comp.(v)) + 1
  done;
  (row, members)

(* ------------------------------------------------------------------ *)
(* Kahn topological sort over a place-selected sub-net                  *)
(* ------------------------------------------------------------------ *)

(* Mirrors Traversal.topological_sort applied to the Digraph whose vertices
   are the transitions and whose arcs are the selected places inserted in
   ascending id order (which is how Liveness.empty_subgraph builds its
   token-free subgraph), including the exact leftover-predecessor walk that
   extracts a witness cycle on failure — so ranks and witnesses are
   bit-identical to Liveness.live_ranks. *)
let topo_over (g : t) ~select =
  let n = g.n in
  let indeg = Array.make (max n 1) 0 in
  for p = 0 to g.m - 1 do
    if select p then indeg.(g.dst.(p)) <- indeg.(g.dst.(p)) + 1
  done;
  (* Selected adjacency in both directions, ascending place id per row. *)
  let srow = Array.make (n + 1) 0 and irow = Array.make (n + 1) 0 in
  for p = 0 to g.m - 1 do
    if select p then begin
      srow.(g.src.(p) + 1) <- srow.(g.src.(p) + 1) + 1;
      irow.(g.dst.(p) + 1) <- irow.(g.dst.(p) + 1) + 1
    end
  done;
  for v = 1 to n do
    srow.(v) <- srow.(v) + srow.(v - 1);
    irow.(v) <- irow.(v) + irow.(v - 1)
  done;
  let ms = srow.(n) in
  let sadj = Array.make (max ms 1) 0 and iadj = Array.make (max ms 1) 0 in
  let scur = Array.make (max n 1) 0 and icur = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    scur.(v) <- srow.(v);
    icur.(v) <- irow.(v)
  done;
  for p = 0 to g.m - 1 do
    if select p then begin
      sadj.(scur.(g.src.(p))) <- p;
      scur.(g.src.(p)) <- scur.(g.src.(p)) + 1;
      iadj.(icur.(g.dst.(p))) <- p;
      icur.(g.dst.(p)) <- icur.(g.dst.(p)) + 1
    end
  done;
  let ring = Array.make (n + 1) 0 in
  let qh = ref 0 and qt = ref 0 in
  let qpush v =
    ring.(!qt) <- v;
    qt := (!qt + 1) mod (n + 1)
  in
  let qpop () =
    let v = ring.(!qh) in
    qh := (!qh + 1) mod (n + 1);
    v
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then qpush v
  done;
  let ranks = Array.make (max n 1) 0 in
  let emitted = ref 0 in
  while !qh <> !qt do
    let v = qpop () in
    ranks.(v) <- !emitted;
    incr emitted;
    for j = srow.(v) to srow.(v + 1) - 1 do
      let w = g.dst.(sadj.(j)) in
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then qpush w
    done
  done;
  if !emitted = n then Ok (if n = 0 then [||] else ranks)
  else begin
    (* Cycle extraction, mirroring Traversal.topological_sort's walk: start
       from the first leftover vertex, repeatedly step to the first leftover
       predecessor (in ascending selected-place order), and cut the prefix at
       the first repeated vertex. *)
    let leftover v = indeg.(v) > 0 in
    let start = ref (-1) in
    (let v = ref 0 in
     while !start < 0 && !v < n do
       if leftover !v then start := !v;
       incr v
    done);
    assert (!start >= 0);
    let mark = Array.make n false in
    let first_leftover_pred v =
      let p = ref (-1) in
      let j = ref irow.(v) in
      while !p < 0 && !j < irow.(v + 1) do
        let s = g.src.(iadj.(!j)) in
        if leftover s then p := s;
        incr j
      done;
      !p
    in
    let rec walk v path =
      if mark.(v) then begin
        match path with
        | [] -> assert false
        | head :: rest ->
          let rec prefix acc = function
            | [] -> assert false
            | x :: r -> if x = v then List.rev acc else prefix (x :: acc) r
          in
          head :: prefix [] rest
      end
      else begin
        mark.(v) <- true;
        let p = first_leftover_pred v in
        assert (p >= 0);
        walk p (p :: path)
      end
    in
    let cycle = walk !start [ !start ] in
    let arr = Array.of_list cycle in
    let k = Array.length arr in
    let place_between i =
      let u = arr.(i) and v = arr.((i + 1) mod k) in
      (* First selected place u -> v in ascending id order, matching
         Digraph.find_arc on the sub-net. *)
      let found = ref (-1) in
      let j = ref srow.(u) in
      while !found < 0 && !j < srow.(u + 1) do
        let p = sadj.(!j) in
        if g.dst.(p) = v then found := p;
        incr j
      done;
      assert (!found >= 0);
      !found
    in
    let dead_places = List.init k place_between in
    Error { Liveness.dead_transitions = cycle; dead_places }
  end

let live_ranks g = topo_over g ~select:(fun p -> g.tokens.(p) = 0)
let topo_ranks g = topo_over g ~select:(fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Howard policy iteration on the flat arrays                          *)
(* ------------------------------------------------------------------ *)

type result = {
  cycle_time : Ratio.t;
  critical_places : Tmg.place list;
  critical_transitions : Tmg.transition list;
  potentials : int array;
  howard_iterations : int;
  cancel_iterations : int;
}

type error = Deadlock of Liveness.dead_cycle | No_cycle

let throughput r = Ratio.inv r.cycle_time

let eps = 1e-9
let max_iterations = 200

(* Preallocated per-solver buffers, sized by the transition count (the ring
   FIFO and the filtered rows by n+1) or the place count, and allocated
   together by [make_scratch] — when the solver is made and when the net's
   counts change, never between solves. [warm] and [potentials] carry over
   from one solve to the next; the rest is reset member-by-member or via
   Array.fill. *)
type scratch = {
  policy : int array;
  lambda : float array;
  x : float array;
  state : int array;  (* 0 unvisited / 1 in progress / 2 done *)
  posn : int array;  (* path position while in progress *)
  path : int array;
  assigned : bool array;
  rev_head : int array;  (* reverse-policy adjacency as head/next lists *)
  rev_next : int array;
  ring : int array;  (* FIFO; at most n entries present at any time *)
  parent : int array;
  plen : int array;
  in_queue : bool array;
  seen : int array;  (* stamped visit marks: O(1) reset per extraction *)
  mutable stamp : int;
  cyc_v : int array;  (* flat concatenation of this round's policy cycles *)
  cyc_start : int array;  (* cycle k spans cyc_v.(cyc_start.(k)..cyc_start.(k+1)-1) *)
  cyc_w : int array;  (* per cycle: delay sum *)
  cyc_t : int array;  (* per cycle: token sum *)
  mutable cyc_count : int;
  best_cyc : int array;  (* best cycle of the component being solved *)
  win_cyc : int array;  (* best cycle across components *)
  everywhere : bool array;  (* per place: constant true *)
  cost_buf : int array;  (* per place: reduced cost, per SPFA call *)
  fo_row : int array;  (* mask-filtered CSR rows, per SPFA call *)
  fo_adj : int array;  (* mask-filtered CSR arcs, per SPFA call *)
  warm : int array;  (* last converged policy; -1 = none *)
  mutable warmed : bool;
  potentials : int array;  (* last certification fixpoint *)
}

let make_scratch n m =
  Obs.span "csr.scratch" @@ fun () ->
  let mk v = Array.make (max n 1) v in
  {
    policy = mk (-1);
    lambda = Array.make (max n 1) neg_infinity;
    x = Array.make (max n 1) 0.;
    state = mk 0;
    posn = mk 0;
    path = mk 0;
    assigned = Array.make (max n 1) false;
    rev_head = mk (-1);
    rev_next = mk (-1);
    ring = Array.make (n + 1) 0;
    parent = mk (-1);
    plen = mk 0;
    in_queue = Array.make (max n 1) false;
    seen = mk 0;
    stamp = 0;
    cyc_v = mk 0;
    cyc_start = Array.make (n + 1) 0;
    cyc_w = mk 0;
    cyc_t = mk 0;
    cyc_count = 0;
    best_cyc = mk 0;
    win_cyc = mk 0;
    everywhere = Array.make (max m 1) true;
    cost_buf = Array.make (max m 1) 0;
    fo_row = Array.make (n + 1) 0;
    fo_adj = Array.make (max m 1) 0;
    warm = mk (-1);
    warmed = false;
    potentials = mk 0;
  }

type solver = {
  stmg : Tmg.t;
  mutable n : int;
  mutable m : int;
  mutable g : t;
  mutable in_scc : bool array;  (* per place: endpoints share a component *)
  mutable comp_row : int array;  (* length comp_count+1 *)
  mutable comp_members : int array;  (* ascending within each component *)
  mutable comp_cyclic : bool array;  (* component has an internal place *)
  mutable comp_count : int;
  mutable scc_dirty : bool;
  mutable liveness : Liveness.dead_cycle option option;
  mutable scratch : scratch;
}

let make_solver tmg =
  List.iter
    (fun c -> Obs.incr ~by:0 ("csr." ^ c))
    [
      "freeze"; "arena.words"; "solve.cold"; "solve.warm"; "cache.liveness_hit";
      "cache.liveness_invalidated"; "cache.scc_hit"; "scc.recomputed";
      "iterations.policy"; "iterations.certify"; "certify.scans";
    ];
  let g = of_tmg tmg in
  {
    stmg = tmg;
    n = g.n;
    m = g.m;
    g;
    in_scc = [||];
    comp_row = [||];
    comp_members = [||];
    comp_cyclic = [||];
    comp_count = 0;
    scc_dirty = true;
    liveness = None;
    scratch = make_scratch g.n g.m;
  }

let compute_scc_state s =
  let g = s.g in
  let ({ comp; comp_count } as comps) = strongly_connected g in
  let in_scc = Array.make (max g.m 1) false in
  for p = 0 to g.m - 1 do
    in_scc.(p) <- comp.(g.src.(p)) = comp.(g.dst.(p))
  done;
  let comp_row, comp_members = component_members g comps in
  let comp_cyclic = Array.make (max comp_count 1) false in
  for p = 0 to g.m - 1 do
    if in_scc.(p) then comp_cyclic.(comp.(g.src.(p))) <- true
  done;
  s.in_scc <- in_scc;
  s.comp_row <- comp_row;
  s.comp_members <- comp_members;
  s.comp_cyclic <- comp_cyclic;
  s.comp_count <- comp_count;
  s.scc_dirty <- false

(* Re-sync the frozen arrays with the live net: delay edits are absorbed by
   the unconditional weight re-read, endpoint rewires rebuild the adjacency
   (from place-id order, so results never depend on rewiring history) and
   dirty the SCC state, token edits invalidate the cached liveness verdict,
   and count changes re-freeze. *)
let refresh s =
  let n = Tmg.transition_count s.stmg and m = Tmg.place_count s.stmg in
  if n <> s.n || m <> s.m then begin
    if s.liveness <> None then Obs.incr "csr.cache.liveness_invalidated";
    s.g <- of_tmg s.stmg;
    s.n <- n;
    s.m <- m;
    s.in_scc <- [||];
    s.scc_dirty <- true;
    s.liveness <- None;
    s.scratch <- make_scratch n m
  end
  else begin
    let g = s.g in
    let structural = ref false and marking = ref false in
    for v = 0 to n - 1 do
      g.delay.(v) <- Tmg.delay s.stmg v
    done;
    for p = 0 to m - 1 do
      let src = Tmg.place_src s.stmg p and dst = Tmg.place_dst s.stmg p in
      if src <> g.src.(p) || dst <> g.dst.(p) then begin
        structural := true;
        g.src.(p) <- src;
        g.dst.(p) <- dst
      end;
      let tk = Tmg.tokens s.stmg p in
      if tk <> g.tokens.(p) then begin
        marking := true;
        g.tokens.(p) <- tk
      end;
      g.weight.(p) <- g.delay.(dst)
    done;
    if !structural then begin
      rebuild_adjacency g;
      s.scc_dirty <- true
    end;
    if (!structural || !marking) && s.liveness <> None then begin
      Obs.incr "csr.cache.liveness_invalidated";
      s.liveness <- None
    end
  end

(* Evaluate the current policy over the members comp_members.(lo..hi-1):
   find its cycles (recorded in discovery order in the cyc_* buffers), each
   cycle's exact delay/token sums, and the potentials. *)
(* The policy-evaluation and improvement sweeps below use unchecked array
   accesses: every index is a vertex or place id produced by
   [rebuild_adjacency]/[compute_scc_state] over arrays sized n/m, so the
   checks can never fire — eliding them is worth ~25% of solve time. *)

let evaluate s lo hi =
  let g = s.g and sc = s.scratch in
  let members = s.comp_members in
  let state = sc.state and assigned = sc.assigned in
  let rev_head = sc.rev_head and rev_next = sc.rev_next in
  let policy = sc.policy and posn = sc.posn and path = sc.path in
  let dst = g.dst and weight = g.weight and tokens = g.tokens in
  let lambda = sc.lambda and x = sc.x in
  for i = lo to hi - 1 do
    let u = Array.unsafe_get members i in
    Array.unsafe_set state u 0;
    Array.unsafe_set assigned u false;
    Array.unsafe_set rev_head u (-1)
  done;
  for i = lo to hi - 1 do
    let u = Array.unsafe_get members i in
    let d = Array.unsafe_get dst (Array.unsafe_get policy u) in
    Array.unsafe_set rev_next u (Array.unsafe_get rev_head d);
    Array.unsafe_set rev_head d u
  done;
  sc.cyc_count <- 0;
  let cyc_total = ref 0 in
  for i = lo to hi - 1 do
    let start = Array.unsafe_get members i in
    if Array.unsafe_get state start = 0 then begin
      let plen = ref 0 in
      let u = ref start in
      while Array.unsafe_get state !u = 0 do
        Array.unsafe_set state !u 1;
        Array.unsafe_set posn !u !plen;
        Array.unsafe_set path !plen !u;
        incr plen;
        u := Array.unsafe_get dst (Array.unsafe_get policy !u)
      done;
      if Array.unsafe_get state !u = 1 then begin
        (* Closed a new cycle at !u: the path suffix from !u is the cycle,
           in policy order. *)
        let i0 = Array.unsafe_get posn !u in
        let k = sc.cyc_count in
        sc.cyc_start.(k) <- !cyc_total;
        let wsum = ref 0 and tsum = ref 0 in
        for j = i0 to !plen - 1 do
          let v = Array.unsafe_get path j in
          sc.cyc_v.(!cyc_total) <- v;
          incr cyc_total;
          let a = Array.unsafe_get policy v in
          wsum := !wsum + Array.unsafe_get weight a;
          tsum := !tsum + Array.unsafe_get tokens a
        done;
        sc.cyc_start.(k + 1) <- !cyc_total;
        sc.cyc_w.(k) <- !wsum;
        sc.cyc_t.(k) <- !tsum;
        sc.cyc_count <- k + 1
      end;
      for j = 0 to !plen - 1 do
        Array.unsafe_set state (Array.unsafe_get path j) 2
      done
    end
  done;
  (* Potentials: fix each cycle's first vertex at 0, walk the cycle
     backwards, then propagate x(u) = w - lambda*t + x(succ u) over the
     reverse policy adjacency. Cycles are processed in reverse discovery
     order. The cycle ratio is a direct float division: both operands are
     exact in 64-bit floats, so the correctly-rounded quotient equals
     [Ratio.to_float (Ratio.make w t)] bit for bit. *)
  let ring = sc.ring in
  let cap = Array.length ring in
  let qh = ref 0 and qt = ref 0 in
  let qpush v =
    Array.unsafe_set ring !qt v;
    let t = !qt + 1 in
    qt := if t = cap then 0 else t
  in
  let qpop () =
    let v = Array.unsafe_get ring !qh in
    let h = !qh + 1 in
    qh := if h = cap then 0 else h;
    v
  in
  for k = sc.cyc_count - 1 downto 0 do
    let b = sc.cyc_start.(k) and e = sc.cyc_start.(k + 1) in
    let l = float_of_int sc.cyc_w.(k) /. float_of_int sc.cyc_t.(k) in
    let root = sc.cyc_v.(b) in
    Array.unsafe_set x root 0.;
    Array.unsafe_set lambda root l;
    Array.unsafe_set assigned root true;
    let klen = e - b in
    for i = klen - 1 downto 1 do
      let v = sc.cyc_v.(b + i) and succ_v = sc.cyc_v.(b + ((i + 1) mod klen)) in
      let a = Array.unsafe_get policy v in
      Array.unsafe_set x v
        ((float_of_int (Array.unsafe_get weight a)
         -. (l *. float_of_int (Array.unsafe_get tokens a)))
        +. Array.unsafe_get x succ_v);
      Array.unsafe_set lambda v l;
      Array.unsafe_set assigned v true
    done;
    for i = b to e - 1 do
      qpush sc.cyc_v.(i)
    done
  done;
  while !qh <> !qt do
    let v = qpop () in
    let u = ref (Array.unsafe_get rev_head v) in
    while !u >= 0 do
      if not (Array.unsafe_get assigned !u) then begin
        let a = Array.unsafe_get policy !u in
        let l = Array.unsafe_get lambda v in
        Array.unsafe_set lambda !u l;
        Array.unsafe_set x !u
          ((float_of_int (Array.unsafe_get weight a)
           -. (l *. float_of_int (Array.unsafe_get tokens a)))
          +. Array.unsafe_get x v);
        Array.unsafe_set assigned !u true;
        qpush !u
      end;
      u := Array.unsafe_get rev_next !u
    done
  done

(* One improvement sweep: ascending members, ascending out-places. A vertex
   switches to an arc reaching a strictly better chain value, or to an
   equal-value arc with a strictly better potential. *)
let improve s lo hi =
  let g = s.g and sc = s.scratch and in_scc = s.in_scc in
  let members = s.comp_members in
  let out_row = g.out_row and out_adj = g.out_adj in
  let dst = g.dst and weight = g.weight and tokens = g.tokens in
  let lambda = sc.lambda and x = sc.x and policy = sc.policy in
  let improved = ref false in
  for i = lo to hi - 1 do
    let u = Array.unsafe_get members i in
    for j = Array.unsafe_get out_row u to Array.unsafe_get out_row (u + 1) - 1 do
      let a = Array.unsafe_get out_adj j in
      if Array.unsafe_get in_scc a then begin
        let v = Array.unsafe_get dst a in
        let lu = Array.unsafe_get lambda u and lv = Array.unsafe_get lambda v in
        if lv > lu +. eps then begin
          Array.unsafe_set policy u a;
          Array.unsafe_set lambda u lv;
          improved := true
        end
        else if lv > lu -. eps then begin
          let cost =
            float_of_int (Array.unsafe_get weight a)
            -. (lu *. float_of_int (Array.unsafe_get tokens a))
          in
          if cost +. Array.unsafe_get x v > Array.unsafe_get x u +. eps then begin
            Array.unsafe_set policy u a;
            improved := true
          end
        end
      end
    done
  done;
  !improved

(* Howard inside one component: returns the best exact policy-cycle ratio,
   leaving that cycle's vertices in scratch.best_cyc (length returned). *)
let howard_scc s lo hi =
  let g = s.g and sc = s.scratch in
  for i = lo to hi - 1 do
    let u = s.comp_members.(i) in
    let w = sc.warm.(u) in
    if w >= 0 && w < g.m && g.src.(w) = u && s.in_scc.(w) then sc.policy.(u) <- w
    else begin
      let a = ref (-1) in
      let j = ref g.out_row.(u) in
      while !a < 0 && !j < g.out_row.(u + 1) do
        let c = g.out_adj.(!j) in
        if s.in_scc.(c) then a := c;
        incr j
      done;
      assert (!a >= 0);
      sc.policy.(u) <- !a
    end
  done;
  let best_r = ref None and best_len = ref 0 in
  let note_cycles () =
    (* Reverse discovery order with a strict comparison: among equals the
       last-discovered cycle wins. *)
    for k = sc.cyc_count - 1 downto 0 do
      let r = Ratio.make sc.cyc_w.(k) sc.cyc_t.(k) in
      let take =
        match !best_r with None -> true | Some r0 -> Ratio.(r > r0)
      in
      if take then begin
        best_r := Some r;
        let b = sc.cyc_start.(k) and e = sc.cyc_start.(k + 1) in
        best_len := e - b;
        Array.blit sc.cyc_v b sc.best_cyc 0 (e - b)
      end
    done
  in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_iterations do
    incr rounds;
    evaluate s lo hi;
    note_cycles ();
    if not (improve s lo hi) then continue_ := false
  done;
  for i = lo to hi - 1 do
    let u = s.comp_members.(i) in
    sc.warm.(u) <- sc.policy.(u)
  done;
  match !best_r with
  | Some r -> (r, !best_len, !rounds)
  | None -> assert false

(* Positive-reduced-cost cycle search: SPFA (FIFO Bellman-Ford) seeded with
   every vertex that has a violated out-place, reporting a cycle once some
   relaxation path reaches length n (a trigger whose parent chain holds no
   cycle resets that length and resumes). [d] is relaxed in place; [mask]
   selects the places worth relaxing. *)
let find_positive_cycle s mask d ratio =
  let g = s.g and sc = s.scratch in
  let n = g.n in
  let p = Ratio.num ratio and q = Ratio.den ratio in
  let dst = g.dst and weight = g.weight and tokens = g.tokens in
  let parent = sc.parent and plen = sc.plen and in_queue = sc.in_queue in
  let ring = sc.ring in
  (* One O(n+m) pass folds the mask into a filtered CSR (arc order within
     each row preserved, so the relaxation sequence is unchanged) and
     precomputes each kept arc's reduced cost — the SPFA loop then carries
     no mask test and no multiplications. *)
  let out_row = g.out_row and out_adj = g.out_adj in
  let cost_buf = sc.cost_buf and fo_row = sc.fo_row and fo_adj = sc.fo_adj in
  let idx = ref 0 in
  for u = 0 to n - 1 do
    Array.unsafe_set fo_row u !idx;
    for j = Array.unsafe_get out_row u to Array.unsafe_get out_row (u + 1) - 1 do
      let a = Array.unsafe_get out_adj j in
      if Array.unsafe_get mask a then begin
        Array.unsafe_set fo_adj !idx a;
        Array.unsafe_set cost_buf a
          ((q * Array.unsafe_get weight a) - (p * Array.unsafe_get tokens a));
        incr idx
      end
    done
  done;
  Array.unsafe_set fo_row n !idx;
  let cost a = Array.unsafe_get cost_buf a in
  Array.fill parent 0 (Array.length parent) (-1);
  Array.fill plen 0 (Array.length plen) 0;
  Array.fill in_queue 0 (Array.length in_queue) false;
  let cap = Array.length ring in
  let qh = ref 0 and qt = ref 0 in
  (* Conditional wrap instead of [mod]: an integer division per queue op is
     measurable in the SPFA loop, and the index never exceeds [cap]. *)
  let qpush v =
    Array.unsafe_set ring !qt v;
    let t = !qt + 1 in
    qt := if t = cap then 0 else t
  in
  let qpop () =
    let v = Array.unsafe_get ring !qh in
    let h = !qh + 1 in
    qh := if h = cap then 0 else h;
    v
  in
  for u = 0 to n - 1 do
    let violated = ref false in
    let j = ref (Array.unsafe_get fo_row u) in
    let stop = Array.unsafe_get fo_row (u + 1) in
    let du = Array.unsafe_get d u in
    while (not !violated) && !j < stop do
      let a = Array.unsafe_get fo_adj !j in
      if du + cost a > Array.unsafe_get d (Array.unsafe_get dst a) then
        violated := true;
      incr j
    done;
    if !violated then begin
      Array.unsafe_set in_queue u true;
      qpush u
    end
  done;
  let extract_cycle v =
    sc.stamp <- sc.stamp + 1;
    let stamp = sc.stamp in
    let entry = ref (-1) in
    let u = ref v in
    let chasing = ref true in
    while !chasing do
      if !u < 0 || sc.parent.(!u) < 0 then chasing := false
      else if sc.seen.(!u) = stamp then begin
        entry := !u;
        chasing := false
      end
      else begin
        sc.seen.(!u) <- stamp;
        u := g.src.(sc.parent.(!u))
      end
    done;
    if !entry < 0 then None
    else begin
      let rec collect u acc =
        let a = sc.parent.(u) in
        let src = g.src.(a) in
        if src = !entry then a :: acc else collect src (a :: acc)
      in
      Some (collect !entry [])
    end
  in
  let found = ref None and scans = ref 0 in
  while !found = None && !qh <> !qt do
    let u = qpop () in
    incr scans;
    Array.unsafe_set in_queue u false;
    (* [d.(u)] and [plen.(u)] are re-read per arc: a self-loop place can
       relax them mid-scan, and later arcs of the same row must see it. *)
    for j = Array.unsafe_get fo_row u to Array.unsafe_get fo_row (u + 1) - 1 do
      let a = Array.unsafe_get fo_adj j in
      let v = Array.unsafe_get dst a in
      let nd = Array.unsafe_get d u + cost a in
      if nd > Array.unsafe_get d v then begin
        Array.unsafe_set d v nd;
        Array.unsafe_set parent v a;
        Array.unsafe_set plen v (Array.unsafe_get plen u + 1);
        let detected =
          if Array.unsafe_get plen v >= n then begin
            match extract_cycle v with
            | Some arcs ->
              found := Some arcs;
              true
            | None ->
              Array.unsafe_set plen v 0;
              false
          end
          else false
        in
        if (not detected) && not (Array.unsafe_get in_queue v) then begin
          Array.unsafe_set in_queue v true;
          qpush v
        end
      end
    done
  done;
  Obs.incr ~by:!scans "csr.certify.scans";
  !found

(* The exact ratio of a cycle given as places; [None] if it carries no
   token, which no cycle of a live net does. *)
let cycle_ratio (g : t) arcs =
  let wsum = List.fold_left (fun acc a -> acc + g.weight.(a)) 0 arcs in
  let tsum = List.fold_left (fun acc a -> acc + g.tokens.(a)) 0 arcs in
  if tsum = 0 then None else Some (Ratio.make wsum tsum)

(* Howard over every cyclic component: the best exact policy-cycle ratio
   across components, with its cycle left in scratch.win_cyc (length
   returned), and the rounds summed over components. *)
let howard s =
  let sc = s.scratch in
  let best = ref None and iters = ref 0 and win_len = ref 0 in
  for c = 0 to s.comp_count - 1 do
    if s.comp_cyclic.(c) then begin
      let r, len, rounds = howard_scc s s.comp_row.(c) s.comp_row.(c + 1) in
      iters := !iters + rounds;
      let take = match !best with None -> true | Some r0 -> Ratio.(r > r0) in
      if take then begin
        best := Some r;
        win_len := len;
        Array.blit sc.best_cyc 0 sc.win_cyc 0 len
      end
    end
  done;
  match !best with Some r -> (r, !win_len, !iters) | None -> assert false

(* Start the certification from Howard's own values: every vertex of a
   cyclic component gets round(-q*x) at the candidate p/q, where x is the
   value of the last evaluated policy; other vertices keep the last
   fixpoint. At convergence no intra-SCC place violates -q*x beyond float
   rounding, because Howard's improvement test is the SPFA's violation
   test, and a component whose own ratio is below p/q stays feasible since
   tokens are never negative — so a converged solve certifies in one scan.
   The SPFA is exact from any start vector, so a poor seed costs scans,
   never correctness; a value that is not finite or exceeds 2^52 in
   magnitude is skipped. *)
let seed_potentials s ratio =
  let q = float_of_int (Ratio.den ratio) in
  let x = s.scratch.x and pot = s.scratch.potentials in
  for c = 0 to s.comp_count - 1 do
    if s.comp_cyclic.(c) then
      for i = s.comp_row.(c) to s.comp_row.(c + 1) - 1 do
        let u = s.comp_members.(i) in
        let v = -.(q *. x.(u)) in
        if Float.abs v <= 0x1p52 then pot.(u) <- int_of_float (Float.round v)
      done
  done

(* Make Howard's candidate exact: cancel positive-reduced-cost cycles over
   the intra-SCC places until none is left, then extend the fixpoint over
   every place. Returns the exact ratio, its witness and the number of
   cancellations. *)
let certify s ratio win_len =
  let g = s.g and sc = s.scratch in
  (* Seed with a concrete arc list: between consecutive cycle vertices pick
     the parallel place of maximal reduced weight, scanning ascending and
     keeping the first maximum. *)
  let k = win_len in
  let num = Ratio.num ratio and den = Ratio.den ratio in
  let seed_arcs =
    List.init k (fun i ->
        let u = sc.win_cyc.(i) and v = sc.win_cyc.((i + 1) mod k) in
        let best_a = ref (-1) and best_score = ref 0 in
        for j = g.out_row.(u) to g.out_row.(u + 1) - 1 do
          let a = g.out_adj.(j) in
          if g.dst.(a) = v then begin
            let score = (g.weight.(a) * den) - (g.tokens.(a) * num) in
            if !best_a < 0 || score > !best_score then begin
              best_a := a;
              best_score := score
            end
          end
        done;
        assert (!best_a >= 0);
        !best_a)
  in
  let seed_ratio = Option.get (cycle_ratio g seed_arcs) in
  assert (Ratio.(seed_ratio >= ratio));
  seed_potentials s seed_ratio;
  let ratio = ref seed_ratio and arcs = ref seed_arcs and rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match find_positive_cycle s s.in_scc sc.potentials !ratio with
    | None -> continue_ := false
    | Some a ->
      ratio := Option.get (cycle_ratio g a);
      arcs := a;
      incr rounds
  done;
  (* Cross-SCC places carry no cycle, so this pass must reach a fixpoint —
     the resulting potentials are the whole-net optimality witness. *)
  (match find_positive_cycle s sc.everywhere sc.potentials !ratio with
  | None -> ()
  | Some _ -> assert false);
  (!ratio, !arcs, !rounds)

let solve s =
  Obs.span "csr.solve" @@ fun () ->
  refresh s;
  Obs.incr (if s.scratch.warmed then "csr.solve.warm" else "csr.solve.cold");
  let dead =
    match s.liveness with
    | Some verdict ->
      Obs.incr "csr.cache.liveness_hit";
      verdict
    | None ->
      let verdict =
        match live_ranks s.g with Ok _ -> None | Error d -> Some d
      in
      s.liveness <- Some verdict;
      verdict
  in
  match dead with
  | Some dead ->
    Log.debug (fun m ->
        m "solve: dead cycle of %d places" (List.length dead.Liveness.dead_places));
    Error (Deadlock dead)
  | None ->
    if s.scc_dirty then begin
      compute_scc_state s;
      Obs.incr "csr.scc.recomputed"
    end
    else Obs.incr "csr.cache.scc_hit";
    if not (Array.exists Fun.id s.comp_cyclic) then Error No_cycle
    else begin
      let ratio, win_len, iters = Obs.span "csr.howard" (fun () -> howard s) in
      s.scratch.warmed <- true;
      let final_ratio, final_arcs, cancels =
        Obs.span "csr.certify" (fun () -> certify s ratio win_len)
      in
      Obs.incr ~by:iters "csr.iterations.policy";
      Obs.incr ~by:cancels "csr.iterations.certify";
      Log.debug (fun m ->
          m "solve: cycle time %a after %d policy + %d certify iterations"
            Ratio.pp final_ratio iters cancels);
      Ok
        {
          cycle_time = final_ratio;
          critical_places = final_arcs;
          critical_transitions = List.map (fun a -> s.g.dst.(a)) final_arcs;
          potentials = Array.copy s.scratch.potentials;
          howard_iterations = iters;
          cancel_iterations = cancels;
        }
    end

let cycle_time tmg = solve (make_solver tmg)

(* Integer longest-path fixpoint at reduced cost q*weight - p*tokens (SPFA
   from every vertex at potential 0). It converges exactly when no cycle
   has ratio above p/q, and then proves that bound for every place. *)
let potentials_at (g : t) ratio =
  let n = g.n in
  let p = Ratio.num ratio and q = Ratio.den ratio in
  let cost a = (q * g.weight.(a)) - (p * g.tokens.(a)) in
  let d = Array.make (max n 1) 0 in
  let in_queue = Array.make (max n 1) true in
  let ring = Array.make (n + 1) 0 in
  let qh = ref 0 and qt = ref 0 in
  let qpush v =
    ring.(!qt) <- v;
    qt := (!qt + 1) mod (n + 1)
  in
  let qpop () =
    let v = ring.(!qh) in
    qh := (!qh + 1) mod (n + 1);
    v
  in
  for u = 0 to n - 1 do
    qpush u
  done;
  while !qh <> !qt do
    let u = qpop () in
    in_queue.(u) <- false;
    for j = g.out_row.(u) to g.out_row.(u + 1) - 1 do
      let a = g.out_adj.(j) in
      let v = g.dst.(a) in
      let nd = d.(u) + cost a in
      if nd > d.(v) then begin
        d.(v) <- nd;
        if not in_queue.(v) then begin
          in_queue.(v) <- true;
          qpush v
        end
      end
    done
  done;
  if n = 0 then [||] else d

(* ------------------------------------------------------------------ *)
(* Karp on the flat arrays                                             *)
(* ------------------------------------------------------------------ *)

let karp_unit (g : t) =
  for p = 0 to g.m - 1 do
    if g.tokens.(p) <> 1 then
      invalid_arg "Csr.karp_unit: every place must hold exactly one token"
  done;
  let ({ comp; comp_count } as comps) = strongly_connected g in
  let comp_row, members = component_members g comps in
  let idx = Array.make (max g.n 1) 0 in
  let best = ref None in
  for c = 0 to comp_count - 1 do
    let lo = comp_row.(c) and hi = comp_row.(c + 1) in
    let nc = hi - lo in
    (* Internal places of the component. *)
    let internal = ref 0 in
    for i = lo to hi - 1 do
      let u = members.(i) in
      for j = g.out_row.(u) to g.out_row.(u + 1) - 1 do
        if comp.(g.dst.(g.out_adj.(j))) = c then incr internal
      done
    done;
    if !internal > 0 then begin
      for i = lo to hi - 1 do
        idx.(members.(i)) <- i - lo
      done;
      (* d.(k).(v) = max weight of a k-arc walk ending at v; walks start
         anywhere (virtual 0-weight root). *)
      let neg = min_int / 4 in
      let d = Array.make_matrix (nc + 1) nc neg in
      Array.fill d.(0) 0 nc 0;
      for k = 1 to nc do
        let dk = d.(k) and dk1 = d.(k - 1) in
        for i = lo to hi - 1 do
          let u = members.(i) in
          let ui = i - lo in
          if dk1.(ui) > neg then
            for j = g.out_row.(u) to g.out_row.(u + 1) - 1 do
              let a = g.out_adj.(j) in
              let v = g.dst.(a) in
              if comp.(v) = c then begin
                let vi = idx.(v) in
                if dk1.(ui) + g.weight.(a) > dk.(vi) then
                  dk.(vi) <- dk1.(ui) + g.weight.(a)
              end
            done
        done
      done;
      (* lambda* = max_v min_k (d_n(v) - d_k(v)) / (n - k). Candidates are
         compared by cross-multiplication (every denominator is positive),
         and only the component's maximum becomes a normalised ratio. *)
      let cnum = ref 0 and cden = ref 0 in
      for v = 0 to nc - 1 do
        if d.(nc).(v) > neg then begin
          let vnum = ref 0 and vden = ref 0 in
          for k = 0 to nc - 1 do
            if d.(k).(v) > neg then begin
              let num = d.(nc).(v) - d.(k).(v) and den = nc - k in
              if !vden = 0 || num * !vden < !vnum * den then begin
                vnum := num;
                vden := den
              end
            end
          done;
          (* d_0(v) = 0 is finite, so [vden] is set. *)
          if !cden = 0 || !vnum * !cden > !cnum * !vden then begin
            cnum := !vnum;
            cden := !vden
          end
        end
      done;
      if !cden > 0 then begin
        let r = Ratio.make !cnum !cden in
        best := Some (match !best with Some b -> Ratio.max b r | None -> r)
      end
    end
  done;
  !best

(* Karp yields only the value p/q; the certificate is recovered from it
   exactly. At the optimum the longest-path fixpoint exists, and summing its
   inequalities around a critical cycle forces equality on each of its
   places, so every critical cycle is made of tight places. Conversely any
   cycle of tight places has reduced cost 0, i.e. attains p/q — so any cycle
   of the tight subgraph is a witness. *)
let karp_unit_certified (g : t) =
  match karp_unit g with
  | None -> Error No_cycle
  | Some ratio -> (
    let pot = potentials_at g ratio in
    let p = Ratio.num ratio and q = Ratio.den ratio in
    let tight a =
      pot.(g.src.(a)) + (q * g.weight.(a)) - (p * g.tokens.(a)) = pot.(g.dst.(a))
    in
    match topo_over g ~select:tight with
    | Ok _ -> assert false
    | Error cycle -> Ok (ratio, cycle.Liveness.dead_places, pot))

(* ------------------------------------------------------------------ *)
(* Lawler on the flat arrays                                           *)
(* ------------------------------------------------------------------ *)

(* Bellman-Ford longest-path probe at float reduced cost w - lambda*t:
   relax every place in row order for at most n+1 rounds; if the last round
   still changed something, walk n parent steps back from the last updated
   vertex (landing on a cycle) and return that cycle's places. *)
let positive_cycle_float (g : t) lambda =
  let n = g.n in
  let cost a = float_of_int g.weight.(a) -. (lambda *. float_of_int g.tokens.(a)) in
  let d = Array.make (max n 1) 0. in
  let parent = Array.make (max n 1) (-1) in
  let changed = ref true in
  let last_updated = ref (-1) in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for u = 0 to n - 1 do
      for j = g.out_row.(u) to g.out_row.(u + 1) - 1 do
        let a = g.out_adj.(j) in
        let v = g.dst.(a) in
        let nd = d.(u) +. cost a in
        if nd > d.(v) +. 1e-12 then begin
          d.(v) <- nd;
          parent.(v) <- a;
          changed := true;
          last_updated := v
        end
      done
    done
  done;
  if not !changed then None
  else begin
    let u = ref !last_updated in
    for _ = 1 to n do
      if parent.(!u) >= 0 then u := g.src.(parent.(!u))
    done;
    let seen = Array.make (max n 1) false in
    let rec chase v =
      if seen.(v) || parent.(v) < 0 then v
      else begin
        seen.(v) <- true;
        chase g.src.(parent.(v))
      end
    in
    let entry = chase !u in
    if parent.(entry) < 0 then None
    else begin
      let rec collect v acc =
        let a = parent.(v) in
        let s = g.src.(a) in
        if s = entry then Some (a :: acc) else collect s (a :: acc)
      in
      collect entry []
    end
  end

let lawler_certified (g : t) =
  match live_ranks g with
  | Error d -> Error (Deadlock d)
  | Ok _ -> (
    match positive_cycle_float g (-1.) with
    | None -> Error No_cycle
    | Some seed ->
      let best = ref (Option.get (cycle_ratio g seed), seed) in
      let hi =
        ref
          (1.
          +. (let acc = ref 0. in
              for p = 0 to g.m - 1 do
                acc := !acc +. float_of_int g.weight.(p)
              done;
              !acc))
      in
      let lo = ref (Ratio.to_float (fst !best)) in
      for _ = 1 to 60 do
        let mid = 0.5 *. (!lo +. !hi) in
        match positive_cycle_float g mid with
        | Some arcs -> (
          match cycle_ratio g arcs with
          | Some r ->
            if Ratio.(r > fst !best) then best := (r, arcs);
            lo := Float.max mid (Ratio.to_float r)
          | None -> lo := mid)
        | None -> hi := mid
      done;
      let rec certify_exact () =
        let r, _ = !best in
        match positive_cycle_float g (Ratio.to_float r +. 1e-12) with
        | None -> ()
        | Some arcs -> (
          match cycle_ratio g arcs with
          | Some r' when Ratio.(r' > r) ->
            best := (r', arcs);
            certify_exact ()
          | Some _ | None -> ())
      in
      certify_exact ();
      let ratio, arcs = !best in
      Ok (ratio, arcs, potentials_at g ratio))
