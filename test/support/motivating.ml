module System = Ermes_slm.System

let base () =
  let sys = System.create ~name:"motivating" () in
  let add name latency = System.add_simple_process sys ~latency ~area:0.01 name in
  let psrc = add "Psrc" 1 in
  let p2 = add "P2" 5 in
  let p3 = add "P3" 2 in
  let p4 = add "P4" 1 in
  let p5 = add "P5" 2 in
  let p6 = add "P6" 2 in
  let psnk = add "Psnk" 1 in
  let ch name src dst latency = ignore (System.add_channel sys ~name ~src ~dst ~latency) in
  ch "a" psrc p2 2;
  ch "b" p2 p3 1;
  ch "c" p3 p4 2;
  ch "d" p2 p6 3;
  ch "e" p4 p6 1;
  ch "f" p2 p5 1;
  ch "g" p5 p6 2;
  ch "h" p6 psnk 1;
  sys

let order sys pname ~gets ~puts =
  match System.find_process sys pname with
  | None -> invalid_arg "Motivating.order: unknown process"
  | Some p ->
    let chan n =
      match System.find_channel sys n with
      | Some c -> c
      | None -> invalid_arg "Motivating.order: unknown channel"
    in
    (match gets with [] -> () | _ -> System.set_get_order sys p (List.map chan gets));
    (match puts with [] -> () | _ -> System.set_put_order sys p (List.map chan puts))

let system () = base ()

let deadlocking () =
  let sys = base () in
  order sys "P6" ~gets:[ "g"; "d"; "e" ] ~puts:[];
  sys

let suboptimal () =
  let sys = base () in
  order sys "P2" ~gets:[] ~puts:[ "f"; "b"; "d" ];
  order sys "P6" ~gets:[ "e"; "g"; "d" ] ~puts:[];
  sys

let optimal () =
  let sys = base () in
  order sys "P2" ~gets:[] ~puts:[ "b"; "d"; "f" ];
  order sys "P6" ~gets:[ "d"; "g"; "e" ] ~puts:[];
  sys

let expected_suboptimal_cycle_time = 20
let expected_optimal_cycle_time = 12
