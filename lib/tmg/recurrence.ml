(* Keys are hashed on every entry: [Hashtbl.hash] looks at the first ten
   values only, and state vectors of one run often share a long prefix. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) = a = b

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 0x100000001b3) lxor a.(i)
    done;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

type t = (int * int) Tbl.t

let create () = Tbl.create 64

let observe r state ~iteration ~time =
  match Tbl.find_opt r state with
  | Some (i0, t0) -> Some (Ratio.make (time - t0) (iteration - i0))
  | None ->
    Tbl.add r state (iteration, time);
    None
