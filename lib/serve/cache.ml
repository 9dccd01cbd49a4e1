type 'a t = {
  lock : Mutex.t;
  table : (string, 'a entry) Hashtbl.t;
  cap : int;
  mutable tick : int;  (* recency clock *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

and 'a entry = { value : 'a; mutable last_used : int }

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    cap = capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let key_of_canonical text = Digest.to_hex (Digest.string text)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t key =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.last_used <- t.tick;
        t.hits <- t.hits + 1;
        Some e.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      (match Hashtbl.find_opt t.table key with
      | Some _ -> Hashtbl.remove t.table key
      | None ->
        if Hashtbl.length t.table >= t.cap then begin
          (* Linear LRU scan: the cache is small (hundreds of entries) and
             eviction is off the hot path, so an index structure would buy
             nothing. *)
          let victim = ref None in
          Hashtbl.iter
            (fun k e ->
              match !victim with
              | Some (_, lu) when lu <= e.last_used -> ()
              | _ -> victim := Some (k, e.last_used))
            t.table;
          match !victim with
          | Some (k, _) ->
            Hashtbl.remove t.table k;
            t.evictions <- t.evictions + 1
          | None -> ()
        end);
      Hashtbl.replace t.table key { value; last_used = t.tick })

type stats = { size : int; capacity : int; hits : int; misses : int; evictions : int }

let stats t =
  locked t (fun () ->
      {
        size = Hashtbl.length t.table;
        capacity = t.cap;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })
