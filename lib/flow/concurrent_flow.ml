module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand

module Path_map = Map.Make (Path)

(* Garg–Könemann phases: edge lengths start at δ/cap and are multiplied by
   (1 + ε·f/cap) whenever f flow crosses the edge.  A phase pushes each
   commodity's full demand (in bottleneck-sized chunks); phases repeat
   until the total "length volume" D = Σ l_e·cap_e reaches 1.  The
   accumulated per-pair flows, re-normalized to distributions, form the
   output routing.

   One phase loop serves both solvers.  The cheapest-route oracle reads
   lengths over the solver's edge space: the identity for the unrestricted
   solver, whose local lengths are [length] itself, and the candidate
   index's local edges for [on_slices], whose local lengths mirror
   [length] and are written in the update loop with the same value. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let span_gk = Obs.span "stage4.gk"

(* What a solver plugs into [phases].  [cheapest k] answers commodity [k]
   (support order) under the current lengths. *)
type 'r player = {
  local : float array;  (* the lengths [cheapest] reads, per local edge *)
  cheapest : int -> 'r;
  answered : 'r -> bool;  (* false when the commodity has no route *)
  iter : 'r -> (int -> int -> unit) -> unit;  (* local and graph id per edge, path order *)
  record : int -> 'r -> float -> unit;  (* commodity, route, amount *)
  routing : unit -> Routing.t;
}

let phases ?(epsilon = 0.1) g demand player =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Concurrent_flow: epsilon must lie in (0,1)";
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_gk @@ fun () -> begin
    let m = Graph.m g in
    let mf = float_of_int (max 2 m) in
    let delta = (1.0 +. epsilon) /. Float.pow ((1.0 +. epsilon) *. mf) (1.0 /. epsilon) in
    (* Capacities are loop constants — snapshot them once instead of going
       through [Graph.cap]'s bounds-checked record access in every phase. *)
    let caps = Array.init m (Graph.cap g) in
    let length = Array.make m 0.0 in
    Array.iteri (fun e _ -> length.(e) <- delta /. caps.(e)) length;
    (* [volume] stays a full fold on purpose: an incrementally-maintained
       running sum would accumulate different rounding than this left-to-
       right reduction and change the phase count (and hence the output). *)
    let volume () =
      let d = ref 0.0 in
      for e = 0 to m - 1 do
        d := !d +. (length.(e) *. caps.(e))
      done;
      !d
    in
    let commodities = Array.of_list (Demand.support demand) in
    (* The player probes feasibility: every commodity must have a route. *)
    let p = player commodities length in
    if Obs.tracing () then
      Obs.event "gk.solve"
        ~attrs:
          [
            ("pairs", Trace.Int (Array.length commodities));
            ("epsilon", Trace.Float epsilon);
          ];
    (* Guard against pathological parameter combinations. *)
    let max_phases = 100_000 in
    let phases = ref 0 in
    while volume () < 1.0 && !phases < max_phases do
      incr phases;
      if Obs.tracing () then
        Obs.event "gk.phase"
          ~attrs:
            [ ("phase", Trace.Int !phases); ("volume", Trace.Float (volume ())) ];
      Array.iteri
        (fun k (s, t) ->
          let remaining = ref (Demand.get demand s t) in
          while !remaining > 1e-12 && volume () < 1.0 do
            let r = p.cheapest k in
            if not (p.answered r) then remaining := 0.0
            else begin
              let bottleneck = ref infinity in
              p.iter r (fun _ e -> bottleneck := Float.min !bottleneck caps.(e));
              let amount = Float.min !remaining !bottleneck in
              p.record k r amount;
              p.iter r (fun l e ->
                  length.(e) <- length.(e) *. (1.0 +. (epsilon *. amount /. caps.(e)));
                  p.local.(l) <- length.(e));
              remaining := !remaining -. amount
            end
          done)
        commodities
    done;
    if !phases >= max_phases then failwith "Concurrent_flow: phase budget exceeded";
    let routing = p.routing () in
    (routing, Routing.congestion g routing demand)
  end

let on_slices ?epsilon g sc demand =
  phases ?epsilon g demand (fun commodities length ->
      let positions = Array.map (Slice_candidates.position sc) commodities in
      Array.iter
        (fun i ->
          if i < 0 || Slice_candidates.is_empty_at sc i then
            invalid_arg "Concurrent_flow.on_slices: demanded pair has no candidates")
        positions;
      let counts = Array.make (Slice_candidates.ncands sc) 0.0 in
      let present = Array.make (Slice_candidates.ncands sc) false in
      let local =
        Array.init (Slice_candidates.edge_count sc) (fun l ->
            length.(Slice_candidates.edge sc l))
      in
      {
        local;
        cheapest = (fun k -> Slice_candidates.cheapest sc local positions.(k));
        answered = (fun c -> c >= 0);
        iter =
          (fun c f ->
            Slice_candidates.iter_local sc c (fun l -> f l (Slice_candidates.edge sc l)));
        record =
          (fun _ c amount ->
            counts.(c) <- counts.(c) +. amount;
            present.(c) <- true);
        routing =
          (fun () ->
            Routing.make
              (List.mapi
                 (fun k pair ->
                   ( pair,
                     Slice_candidates.pair_distribution sc ~counts ~present ~overflow:None
                       positions.(k) ))
                 (Array.to_list commodities)));
      })

let unrestricted ?epsilon g demand =
  phases ?epsilon g demand (fun commodities length ->
      let weight e = length.(e) in
      Array.iter
        (fun (s, t) ->
          if Option.is_none (Shortest.dijkstra_path g ~weight s t) then
            invalid_arg "Concurrent_flow: demanded pair has no route")
        commodities;
      let flows = Array.make (Array.length commodities) Path_map.empty in
      let path = function Some p -> p | None -> assert false (* answered *) in
      {
        local = length;
        cheapest =
          (fun k ->
            let s, t = commodities.(k) in
            Shortest.dijkstra_path g ~weight s t);
        answered = Option.is_some;
        iter = (fun r f -> Array.iter (fun e -> f e e) (path r).Path.edges);
        record =
          (fun k r amount ->
            flows.(k) <-
              Path_map.update (path r)
                (function None -> Some amount | Some a -> Some (a +. amount))
                flows.(k));
        routing =
          (fun () ->
            Routing.make
              (List.mapi
                 (fun k pair ->
                   (pair, Path_map.fold (fun p a acc -> (a, p) :: acc) flows.(k) []))
                 (Array.to_list commodities)));
      })
