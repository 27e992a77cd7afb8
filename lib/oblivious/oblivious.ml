module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Rng = Sso_prng.Rng

type indexed = { weights : float array; path : int -> Path.t }

let indexed weights path =
  if Array.length weights = 0 then invalid_arg "Oblivious.indexed: empty distribution";
  Array.iter
    (fun w -> if not (w > 0.0) then invalid_arg "Oblivious.indexed: non-positive weight")
    weights;
  { weights; path }

type source =
  | Listed of (int -> int -> (float * Path.t) list)
  | Indexed of (int -> int -> indexed)

type t = {
  name : string;
  graph : Graph.t;
  source : source;
  cache : (int * int, (float * Path.t) list) Hashtbl.t;
  (* Guards [cache] and serializes list generators: distributions are
     queried from pool workers (sampling, congestion sweeps), and
     generators may memoize internally.  Indexed generators run outside
     it, so they must be thread-safe. *)
  lock : Mutex.t;
}

let create name graph source =
  { name; graph; source; cache = Hashtbl.create 256; lock = Mutex.create () }

let make ~name graph generate = create name graph (Listed generate)

let make_indexed ~name graph generate = create name graph (Indexed generate)

let name r = r.name

let graph r = r.graph

let check_endpoints s t (p : Path.t) =
  if p.Path.src <> s || p.Path.dst <> t then
    invalid_arg "Oblivious.distribution: path endpoints do not match pair"

(* The sum every normalized weight is divided by, added left to right.
   Draws from an indexed generator divide by the same sum as
   {!distribution}, so both see bit-identical weights. *)
let total_weight weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then
    invalid_arg "Oblivious.distribution: weights must have positive sum";
  total

let distribution r s t =
  if s = t then invalid_arg "Oblivious.distribution: s = t";
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) @@ fun () ->
  match Hashtbl.find_opt r.cache (s, t) with
  | Some dist -> dist
  | None ->
      let raw =
        match r.source with
        | Listed generate -> generate s t
        | Indexed generate ->
            let ix = generate s t in
            List.init (Array.length ix.weights) (fun i -> (ix.weights.(i), ix.path i))
      in
      if raw = [] then
        invalid_arg
          (Printf.sprintf "Oblivious.distribution (%s): empty distribution for (%d,%d)"
             r.name s t);
      let total = total_weight (Array.of_list (List.map fst raw)) in
      List.iter
        (fun ((w, p) : float * Path.t) ->
          if w < 0.0 then invalid_arg "Oblivious.distribution: negative weight";
          check_endpoints s t p)
        raw;
      let dist =
        List.filter_map (fun (w, p) -> if w > 0.0 then Some (w /. total, p) else None) raw
      in
      Hashtbl.replace r.cache (s, t) dist;
      dist

let preload r entries =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) @@ fun () ->
  List.iter
    (fun ((s, t), dist) ->
      if s = t then invalid_arg "Oblivious.preload: s = t";
      if dist = [] then invalid_arg "Oblivious.preload: empty distribution";
      List.iter
        (fun ((w, p) : float * Path.t) ->
          if not (w > 0.0) then invalid_arg "Oblivious.preload: non-positive weight";
          if p.Path.src <> s || p.Path.dst <> t then
            invalid_arg "Oblivious.preload: path endpoints do not match pair")
        dist;
      Hashtbl.replace r.cache (s, t) dist)
    entries

(* A pair's normalized weights and the path at each index.  An indexed
   pair that is not in the cache builds only the paths asked for, outside
   the lock, and caches nothing; every other pair reads its memoized
   distribution. *)
let pair_view r s t =
  match r.source with
  | Indexed generate
    when s <> t && not (Mutex.protect r.lock (fun () -> Hashtbl.mem r.cache (s, t))) ->
      let ix = generate s t in
      let total = total_weight ix.weights in
      ( Array.map (fun w -> w /. total) ix.weights,
        fun i ->
          let p = ix.path i in
          check_endpoints s t p;
          p )
  | Listed _ | Indexed _ ->
      let dist = Array.of_list (distribution r s t) in
      (Array.map fst dist, fun i -> snd dist.(i))

let draw rng r s t ~count =
  if count < 0 then invalid_arg "Oblivious.draw: negative count";
  let weights, path = pair_view r s t in
  let rec picks k acc =
    if k = 0 then List.rev acc else picks (k - 1) (Rng.discrete rng weights :: acc)
  in
  let drawn = picks count [] in
  (* Two draws of the same index share one built path. *)
  let built = Hashtbl.create count in
  List.map
    (fun i ->
      match Hashtbl.find_opt built i with
      | Some p -> p
      | None ->
          let p = path i in
          Hashtbl.add built i p;
          p)
    drawn

let sample rng r s t = List.hd (draw rng r s t ~count:1)

let to_routing r pairs =
  Routing.make
    (List.map (fun (s, t) -> ((s, t), distribution r s t)) (List.sort_uniq compare pairs))

let congestion r d =
  if Demand.support_size d = 0 then 0.0
  else Routing.congestion r.graph (to_routing r (Demand.support d)) d

let dilation r d =
  if Demand.support_size d = 0 then 0
  else Routing.dilation (to_routing r (Demand.support d)) d

let support_sparsity r pairs =
  List.fold_left (fun acc (s, t) -> max acc (List.length (distribution r s t))) 0 pairs
