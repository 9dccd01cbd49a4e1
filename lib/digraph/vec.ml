type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let make n x = { data = Array.make n x; len = n }

let length v = v.len

let is_empty v = v.len = 0

let check v i fn =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds [0,%d)" fn i v.len)

let get v i =
  check v i "get";
  v.data.(i)

let set v i x =
  check v i "set";
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let last v = if v.len = 0 then None else Some v.data.(v.len - 1)

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.len - 1) []

let of_list xs =
  let v = create () in
  List.iter (fun x -> ignore (push v x)) xs;
  v

let to_array v = Array.sub v.data 0 v.len

let map f v =
  let w = create () in
  iter (fun x -> ignore (push w (f x))) v;
  w

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len
