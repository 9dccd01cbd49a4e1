module System = Ermes_slm.System

type state = Reset | Get of System.channel | Compute of int | Put of System.channel

type t = { process : System.process; states : state array }

let of_process sys p =
  let gets = List.map (fun c -> Get c) (System.get_order sys p) in
  let comps = List.init (System.latency sys p) (fun k -> Compute k) in
  let puts = List.map (fun c -> Put c) (System.put_order sys p) in
  let body =
    match System.phase sys p with
    | System.Gets_first -> gets @ comps @ puts
    | System.Puts_first -> puts @ comps @ gets
  in
  { process = p; states = Array.of_list (Reset :: body) }

let io_state_count t =
  Array.fold_left
    (fun acc s -> match s with Get _ | Put _ -> acc + 1 | Reset | Compute _ -> acc)
    0 t.states

let compute_state_count t =
  Array.fold_left
    (fun acc s -> match s with Compute _ -> acc + 1 | Reset | Get _ | Put _ -> acc)
    0 t.states

let state_name sys = function
  | Reset -> "reset"
  | Get c -> Printf.sprintf "get_%s" (System.channel_name sys c)
  | Compute k -> Printf.sprintf "c%d" k
  | Put c -> Printf.sprintf "put_%s" (System.channel_name sys c)

let pp sys ppf t =
  Format.fprintf ppf "@[<v>fsm %s:@," (System.process_name sys t.process);
  Array.iteri
    (fun i s ->
      let next =
        if i = Array.length t.states - 1 then (if Array.length t.states > 1 then 1 else 0)
        else i + 1
      in
      let selfloop = match s with Get _ | Put _ -> " (wait self-loop)" | _ -> "" in
      Format.fprintf ppf "  %d: %s -> %d%s@," i (state_name sys s) next selfloop)
    t.states;
  Format.fprintf ppf "@]"

let to_dot sys t =
  let buf = Buffer.create 256 in
  let n = Array.length t.states in
  Buffer.add_string buf
    (Printf.sprintf "digraph \"fsm_%s\" {\n" (System.process_name sys t.process));
  Array.iteri
    (fun i s ->
      Buffer.add_string buf (Printf.sprintf "  s%d [label=\"%s\"];\n" i (state_name sys s));
      (match s with
       | Get _ | Put _ ->
         Buffer.add_string buf (Printf.sprintf "  s%d -> s%d [label=\"wait\"];\n" i i)
       | Reset | Compute _ -> ());
      let next = if i = n - 1 then (if n > 1 then 1 else 0) else i + 1 in
      Buffer.add_string buf (Printf.sprintf "  s%d -> s%d;\n" i next))
    t.states;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
