module Digraph = Ermes_digraph.Digraph
module Dot = Ermes_digraph.Dot
module Obs = Ermes_obs.Obs

type process = int
type channel = int

type impl = { tag : string; latency : int; area : float }

type phase_order = Gets_first | Puts_first

type pinfo = {
  pname : string;
  pphase : phase_order;
  impls : impl array;
  mutable selected : int;
  mutable gets : channel list;
  mutable puts : channel list;
}

type channel_kind =
  | Rendezvous
  | Fifo of int
  | Multi_rate of { produce : int; consume : int; depth : int }
  | Handshake of { hold : int }

let max_rate = 1024

let validate_kind = function
  | Rendezvous -> Ok ()
  | Fifo depth ->
    if depth < 1 then Error "FIFO depth must be >= 1" else Ok ()
  | Multi_rate { produce; consume; depth } ->
    if produce < 1 || consume < 1 then
      Error
        (Printf.sprintf "multi-rate produce/consume must be >= 1, got %d/%d" produce
           consume)
    else if produce > max_rate || consume > max_rate then
      Error
        (Printf.sprintf "multi-rate produce/consume must be <= %d, got %d/%d" max_rate
           produce consume)
    else if depth < max produce consume then
      Error
        (Printf.sprintf
           "multi-rate depth must be >= max(produce, consume) = %d, got %d"
           (max produce consume) depth)
    else Ok ()
  | Handshake { hold } ->
    if hold < 0 then Error (Printf.sprintf "handshake hold must be >= 0, got %d" hold)
    else Ok ()

let string_of_kind = function
  | Rendezvous -> "rendezvous"
  | Fifo depth -> "fifo " ^ string_of_int depth
  | Multi_rate { produce; consume; depth } ->
    String.concat ""
      [ "rate "; string_of_int produce; "/"; string_of_int consume; " fifo "; string_of_int depth ]
  | Handshake { hold } -> "handshake " ^ string_of_int hold

(* The canonical non-default annotation every printer shares: empty for the
   default rendezvous kind, otherwise a space and [string_of_kind] — exactly
   the suffix [Soc_format] parses back. *)
let kind_suffix = function
  | Rendezvous -> ""
  | k -> " " ^ string_of_kind k

type cinfo = { cname : string; clatency : int; mutable ckind : channel_kind }

module Names = Hashtbl.Make (String)

type t = {
  sys_name : string;
  g : (pinfo, cinfo) Digraph.t;
  by_pname : process Names.t;
  by_cname : channel Names.t;
}

let create ?(name = "system") () =
  { sys_name = name; g = Digraph.create (); by_pname = Names.create 16; by_cname = Names.create 16 }

let name t = t.sys_name

let add_process t ?(phase = Gets_first) ~impls name =
  if impls = [] then invalid_arg "System.add_process: empty implementation set";
  if Names.mem t.by_pname name then
    invalid_arg (Printf.sprintf "System.add_process: duplicate process %S" name);
  List.iter
    (fun i ->
      if i.latency < 0 then invalid_arg "System.add_process: negative latency";
      if i.area < 0. then invalid_arg "System.add_process: negative area")
    impls;
  let p =
    Digraph.add_vertex t.g
      {
        pname = name;
        pphase = phase;
        impls = Array.of_list impls;
        selected = 0;
        gets = [];
        puts = [];
      }
  in
  Names.add t.by_pname name p;
  p

let add_simple_process t ?phase ~latency ~area name =
  add_process t ?phase ~impls:[ { tag = "only"; latency; area } ] name

let phase t p = (Digraph.vertex_label t.g p).pphase

let add_channel t ~name ~src ~dst ~latency =
  if Names.mem t.by_cname name then
    invalid_arg (Printf.sprintf "System.add_channel: duplicate channel %S" name);
  if latency < 1 then invalid_arg "System.add_channel: latency must be >= 1";
  let c =
    Digraph.add_arc t.g ~src ~dst { cname = name; clatency = latency; ckind = Rendezvous }
  in
  Names.add t.by_cname name c;
  let ps = Digraph.vertex_label t.g src and pd = Digraph.vertex_label t.g dst in
  ps.puts <- ps.puts @ [ c ];
  pd.gets <- pd.gets @ [ c ];
  c

let process_count t = Digraph.vertex_count t.g
let channel_count t = Digraph.arc_count t.g
let processes t = Digraph.vertices t.g
let channels t = Digraph.arcs t.g

let process_name t p = (Digraph.vertex_label t.g p).pname
let channel_name t c = (Digraph.arc_label t.g c).cname

let find_process t name = Names.find_opt t.by_pname name
let find_channel t name = Names.find_opt t.by_cname name

let channel_src t c = Digraph.arc_src t.g c
let channel_dst t c = Digraph.arc_dst t.g c
let channel_latency t c = (Digraph.arc_label t.g c).clatency
let channel_kind t c = (Digraph.arc_label t.g c).ckind

let put_side_latency t c = channel_latency t c

let get_side_latency t c =
  match channel_kind t c with
  | Rendezvous | Handshake _ -> channel_latency t c
  | Fifo _ | Multi_rate _ -> 1

let channel_rates t c =
  match channel_kind t c with
  | Multi_rate { produce; consume; _ } -> (produce, consume)
  | Rendezvous | Fifo _ | Handshake _ -> (1, 1)

let set_channel_kind t c kind =
  (match validate_kind kind with
   | Error m -> invalid_arg ("System.set_channel_kind: " ^ m)
   | Ok () -> ());
  (Digraph.arc_label t.g c).ckind <- kind

let impls t p = (Digraph.vertex_label t.g p).impls
let selected t p = (Digraph.vertex_label t.g p).selected

let select t p i =
  let info = Digraph.vertex_label t.g p in
  if i < 0 || i >= Array.length info.impls then
    invalid_arg
      (Printf.sprintf "System.select: %s has no implementation %d" info.pname i);
  info.selected <- i

let current t p =
  let info = Digraph.vertex_label t.g p in
  info.impls.(info.selected)

let latency t p = (current t p).latency
let area t p = (current t p).area

let total_area t =
  List.fold_left (fun acc p -> acc +. area t p) 0. (processes t)

let get_order t p = (Digraph.vertex_label t.g p).gets
let put_order t p = (Digraph.vertex_label t.g p).puts

let check_permutation what current proposed =
  let sorted = List.sort Int.compare in
  if
    (not (List.equal Int.equal current proposed))
    && not (List.equal Int.equal (sorted current) (sorted proposed))
  then
    invalid_arg (Printf.sprintf "System.%s: not a permutation of the process's channels" what)

let set_get_order t p order =
  let info = Digraph.vertex_label t.g p in
  check_permutation "set_get_order" info.gets order;
  info.gets <- order

let set_put_order t p order =
  let info = Digraph.vertex_label t.g p in
  check_permutation "set_put_order" info.puts order;
  info.puts <- order

(* The get (put) order lists exactly the process's input (output)
   channels. *)
let is_source t p = (Digraph.vertex_label t.g p).gets = []
let is_sink t p = (Digraph.vertex_label t.g p).puts = []
let sources t = List.filter (is_source t) (processes t)
let sinks t = List.filter (is_sink t) (processes t)

let order_combinations t =
  let rec fact n = if n <= 1 then 1. else float_of_int n *. fact (n - 1) in
  List.fold_left
    (fun acc p ->
      acc *. fact (List.length (get_order t p)) *. fact (List.length (put_order t p)))
    1. (processes t)

let graph t =
  Digraph.map_labels ~vertex:(fun pi -> pi.pname) ~arc:(fun ci -> ci.cname) t.g

let max_repetition = 4096

(* Channel ends as CSR rows over processes, by counting sort of the channel
   ids: [adj.(row.(v)) .. adj.(row.(v + 1) - 1)] are the [slot]s whose
   [ends] entry is [v], in ascending slot order. *)
let rows np ends =
  let k = Array.length ends in
  let row = Array.make (np + 1) 0 in
  Array.iter (fun v -> row.(v + 1) <- row.(v + 1) + 1) ends;
  for v = 1 to np do
    row.(v) <- row.(v) + row.(v - 1)
  done;
  let cursor = Array.sub row 0 np and adj = Array.make k 0 in
  for slot = 0 to k - 1 do
    let v = ends.(slot) in
    adj.(cursor.(v)) <- slot;
    cursor.(v) <- cursor.(v) + 1
  done;
  (row, adj)

exception Invalid of string

(* Minimal positive integer solution of the SDF balance equations
   q(src)·produce = q(dst)·consume over every channel: the number of firings
   of each process per common period. Unit-rate kinds constrain their
   endpoints to equal rates, so a system without [Multi_rate] channels always
   gets the all-ones vector. Propagates exact rationals over an undirected
   BFS, then scales each weakly-connected component to the least integer
   vector; inconsistent rates (no common period) or a repetition count above
   [max_repetition] are reported as errors.

   Channel [c] is two half-edges: [2c] from its source (q(dst) = q(src) ·
   produce / consume) and [2c + 1] from its destination (the inverse). A
   process scans its half-edges newest first and components are scaled
   newest first. This order decides which error is found first, and so the
   message; test_slm checks it against a list-based reference. *)
let repetition_vector t =
  let np = process_count t and nc = channel_count t in
  if np = 0 then Ok [||]
  else begin
    let mul = Array.make (2 * nc) 1 and div = Array.make (2 * nc) 1 in
    let ends = Array.make (2 * nc) 0 and other = Array.make (2 * nc) 0 in
    for c = 0 to nc - 1 do
      let produce, consume = channel_rates t c in
      let s = channel_src t c and d = channel_dst t c in
      ends.(2 * c) <- s;
      other.(2 * c) <- d;
      mul.(2 * c) <- produce;
      div.(2 * c) <- consume;
      ends.((2 * c) + 1) <- d;
      other.((2 * c) + 1) <- s;
      mul.((2 * c) + 1) <- consume;
      div.((2 * c) + 1) <- produce
    done;
    let row, half = rows np ends in
    let num = Array.make np 0 and den = Array.make np 1 in
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
    (* [order] is the BFS queue and, once drained, every component's members
       in discovery order; component [k] starts at [starts.(k)]. *)
    let order = Array.make np 0 and starts = Array.make (np + 1) 0 in
    let tail = ref 0 and comps = ref 0 in
    match
      for root = 0 to np - 1 do
        if num.(root) = 0 then begin
          num.(root) <- 1;
          den.(root) <- 1;
          starts.(!comps) <- !tail;
          incr comps;
          order.(!tail) <- root;
          incr tail;
          let head = ref (!tail - 1) in
          while !head < !tail do
            let u = order.(!head) in
            incr head;
            for k = row.(u + 1) - 1 downto row.(u) do
              let h = half.(k) in
              let v = other.(h) in
              let n = num.(u) * mul.(h) and d = den.(u) * div.(h) in
              let g = gcd n d in
              let n = n / g and d = d / g in
              if n > 1 lsl 30 || d > 1 lsl 30 then
                fail "rate unfolding too large around channel %s" (channel_name t (h / 2))
              else if num.(v) = 0 then begin
                num.(v) <- n;
                den.(v) <- d;
                order.(!tail) <- v;
                incr tail
              end
              else if num.(v) * d <> n * den.(v) then
                fail
                  "inconsistent rates: channel %s admits no common period (%s would \
                   need to fire %d/%d times per period of %s, but %d/%d elsewhere)"
                  (channel_name t (h / 2)) (process_name t v) n d (process_name t u)
                  num.(v) den.(v)
            done
          done
        end
      done;
      starts.(!comps) <- np;
      let q = Array.make np 1 in
      for k = !comps - 1 downto 0 do
        let lo = starts.(k) and hi = starts.(k + 1) - 1 in
        (* Newest member first, as the list-based reference folds, so even
           an lcm that overflows comes out the same. *)
        let l = ref 1 in
        for i = hi downto lo do
          let p = order.(i) in
          let g = gcd !l den.(p) in
          l := !l / g * den.(p)
        done;
        if !l > 1 lsl 30 then fail "rate unfolding too large (no small common period)";
        let g = ref 0 in
        for i = lo to hi do
          let p = order.(i) in
          g := gcd !g (num.(p) * (!l / den.(p)))
        done;
        for i = lo to hi do
          let p = order.(i) in
          let v = num.(p) * (!l / den.(p)) / !g in
          if v > max_repetition then
            fail "rate unfolding too large: process %s repeats %d times per period (max %d)"
              (process_name t p) v max_repetition;
          q.(p) <- v
        done
      done;
      q
    with
    | q -> Ok q
    | exception Invalid e -> Error e
  end

(* Every process reached from [roots] along the [row]/[adj] rows, where
   [adj] holds channel ids and [next] maps a channel to the process it
   leads to. *)
let reach np roots row adj next =
  let seen = Array.make np false and stack = Array.make np 0 in
  let sp = ref 0 in
  let visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      stack.(!sp) <- v;
      incr sp
    end
  in
  List.iter visit roots;
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    for k = row.(u) to row.(u + 1) - 1 do
      visit next.(adj.(k))
    done
  done;
  seen

let validate t =
  Obs.span "system.validate" @@ fun () ->
  let np = process_count t and nc = channel_count t in
  let src = Array.init nc (channel_src t) and dst = Array.init nc (channel_dst t) in
  let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt in
  match
    if np = 0 then fail "system has no process";
    (* A channel from a process to itself would put both of its statements
       on one process cycle; the linter's E101 says the same. *)
    for c = 0 to nc - 1 do
      if src.(c) = dst.(c) then
        fail "channel %S must connect two distinct processes, both ends are %S"
          (channel_name t c) (process_name t src.(c))
    done;
    let sources = sources t and sinks = sinks t in
    if sources = [] then fail "system has no source process";
    if sinks = [] then fail "system has no sink process";
    (* Weak connectivity: every process reachable from process 0 ignoring
       direction. *)
    let both_row, both_adj = rows np (Array.append src dst) in
    let across = Array.append dst src in
    let connected = reach np [ 0 ] both_row both_adj across in
    for p = np - 1 downto 0 do
      if not connected.(p) then
        fail "system is not connected (e.g. process %s)" (process_name t p)
    done;
    (* Every process on a source-to-sink path. *)
    let out_row, out_adj = rows np src and in_row, in_adj = rows np dst in
    let fwd = reach np sources out_row out_adj dst in
    let bwd = reach np sinks in_row in_adj src in
    for p = 0 to np - 1 do
      if not (fwd.(p) && bwd.(p)) then
        fail "process %s is not on any source-to-sink path" (process_name t p)
    done
  with
  | () -> (
    (* Multi-rate weights must admit a common period, or no bounded
       schedule (and no marked-graph unfolding) exists. *)
    match repetition_vector t with Error m -> Error m | Ok _ -> Ok ())
  | exception Invalid e -> Error e

let copy t =
  let t' = create ~name:t.sys_name () in
  List.iter
    (fun p ->
      let info = Digraph.vertex_label t.g p in
      ignore
        (add_process t' ~phase:info.pphase ~impls:(Array.to_list info.impls)
           info.pname))
    (processes t);
  List.iter
    (fun c ->
      let c' =
        add_channel t' ~name:(channel_name t c) ~src:(channel_src t c)
          ~dst:(channel_dst t c) ~latency:(channel_latency t c)
      in
      set_channel_kind t' c' (channel_kind t c))
    (channels t);
  List.iter
    (fun p ->
      select t' p (selected t p);
      set_get_order t' p (get_order t p);
      set_put_order t' p (put_order t p))
    (processes t);
  t'

let to_dot t =
  let vertex_name = process_name t in
  let vertex_attrs p =
    let shape = if is_source t p || is_sink t p then "ellipse" else "box" in
    [ ("shape", shape); ("label", Printf.sprintf "%s\nL=%d" (process_name t p) (latency t p)) ]
  in
  let arc_attrs c =
    [ ("label",
       Printf.sprintf "%s (%d%s)" (channel_name t c) (channel_latency t c)
         (kind_suffix (channel_kind t c))) ]
  in
  Dot.to_string ~name:t.sys_name ~vertex_attrs ~arc_attrs ~vertex_name t.g

let pp ppf t =
  Format.fprintf ppf "@[<v>system %s: %d processes, %d channels@," t.sys_name
    (process_count t) (channel_count t);
  List.iter
    (fun p ->
      Format.fprintf ppf "  %s latency=%d area=%.4f gets=[%s] puts=[%s]@,"
        (process_name t p) (latency t p) (area t p)
        (String.concat "," (List.map (channel_name t) (get_order t p)))
        (String.concat "," (List.map (channel_name t) (put_order t p))))
    (processes t);
  List.iter
    (fun c ->
      Format.fprintf ppf "  %s: %s -> %s latency=%d%s@," (channel_name t c)
        (process_name t (channel_src t c))
        (process_name t (channel_dst t c))
        (channel_latency t c)
        (kind_suffix (channel_kind t c)))
    (channels t);
  Format.fprintf ppf "@]"
