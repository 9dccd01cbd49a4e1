type loop = {
  label : string;
  trip : int;
  body : Op.t array;
  recurrence : int;
}

type t = { name : string; loops : loop list; local_words : int }

let loop ?(recurrence = 0) ~label ~trip body =
  if trip < 1 then invalid_arg "Behavior.loop: trip must be >= 1";
  if recurrence < 0 then invalid_arg "Behavior.loop: negative recurrence";
  Array.iteri
    (fun i (o : Op.t) ->
      List.iter
        (fun d ->
          if d < 0 || d >= i then
            invalid_arg
              (Printf.sprintf "Behavior.loop %s: op %d depends on %d (must be < %d)"
                 label i d i))
        o.deps)
    body;
  { label; trip; body; recurrence }

let make ?(local_words = 0) name loops =
  if local_words < 0 then invalid_arg "Behavior.make: negative local_words";
  { name; loops; local_words }

let op_count b =
  List.fold_left (fun acc l -> acc + (Array.length l.body * l.trip)) 0 b.loops

let class_count l cls =
  Array.fold_left (fun acc (o : Op.t) -> if o.cls = cls then acc + 1 else acc) 0 l.body

let used_classes b =
  let used cls =
    List.exists (fun l -> class_count l cls > 0) b.loops
  in
  List.filter used Op.all

let body_critical_path l =
  let n = Array.length l.body in
  let finish = Array.make n 0 in
  for i = 0 to n - 1 do
    let o = l.body.(i) in
    let ready = List.fold_left (fun acc d -> max acc finish.(d)) 0 o.deps in
    finish.(i) <- ready + Op.delay o.cls
  done;
  Array.fold_left max 0 finish
