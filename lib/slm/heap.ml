module Vec = Ermes_digraph.Vec

type 'a t = (int * 'a) Vec.t

let create () = Vec.create ()
let is_empty h = Vec.is_empty h
let size h = Vec.length h

let swap h i j =
  let x = Vec.get h i in
  Vec.set h i (Vec.get h j);
  Vec.set h j x

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if fst (Vec.get h i) < fst (Vec.get h parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = Vec.length h in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && fst (Vec.get h l) < fst (Vec.get h !smallest) then smallest := l;
  if r < n && fst (Vec.get h r) < fst (Vec.get h !smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h key v = sift_up h (Vec.push h (key, v))

let pop_min h =
  if Vec.is_empty h then None
  else begin
    let top = Vec.get h 0 in
    let last = Vec.length h - 1 in
    swap h 0 last;
    ignore (Vec.pop h);
    if not (Vec.is_empty h) then sift_down h 0;
    Some top
  end

let iter f h =
  for i = 0 to Vec.length h - 1 do
    let k, v = Vec.get h i in
    f k v
  done
