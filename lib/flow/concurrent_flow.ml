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
   output routing. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let span_gk = Obs.span "stage4.gk"

let solve ?(epsilon = 0.1) g ~oracle demand =
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
    let commodities = Demand.support demand in
    let flows = Hashtbl.create (List.length commodities) in
    let record pair p amount =
      let cur = try Hashtbl.find flows pair with Not_found -> Path_map.empty in
      let cur =
        Path_map.update p
          (function None -> Some amount | Some a -> Some (a +. amount))
          cur
      in
      Hashtbl.replace flows pair cur
    in
    let weight e = length.(e) in
    (* Feasibility probe: every commodity must have at least one path. *)
    List.iter
      (fun (s, t) ->
        match oracle ~weight s t with
        | Some _ -> ()
        | None -> invalid_arg "Concurrent_flow: demanded pair has no route")
      commodities;
    if Obs.tracing () then
      Obs.event "gk.solve"
        ~attrs:
          [
            ("pairs", Trace.Int (List.length commodities));
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
      List.iter
        (fun (s, t) ->
          let remaining = ref (Demand.get demand s t) in
          while !remaining > 1e-12 && volume () < 1.0 do
            match oracle ~weight s t with
            | None -> remaining := 0.0
            | Some (p : Path.t) ->
                let bottleneck =
                  Array.fold_left
                    (fun acc e -> Float.min acc caps.(e))
                    infinity p.Path.edges
                in
                let amount = Float.min !remaining bottleneck in
                record (s, t) p amount;
                Array.iter
                  (fun e ->
                    length.(e) <-
                      length.(e) *. (1.0 +. (epsilon *. amount /. caps.(e))))
                  p.Path.edges;
                remaining := !remaining -. amount
          done)
        commodities
    done;
    if !phases >= max_phases then failwith "Concurrent_flow: phase budget exceeded";
    let routing =
      Routing.make
        (List.map
           (fun pair ->
             let dist = Hashtbl.find flows pair in
             (pair, Path_map.fold (fun p a acc -> (a, p) :: acc) dist []))
           commodities)
    in
    (routing, Routing.congestion g routing demand)
  end

(* The same phase structure as [solve], specialized to candidate slices:
   identical chunking, float updates, record order and trace events, with
   the cheapest-path oracle and the flow accumulation walking the flat
   candidate index in place.  The oracle reads [local_length], a mirror of
   [length] over the index's local edge space, written in the update loop
   with the same value; [volume] still folds the graph-sized [length]. *)
let on_slices ?(epsilon = 0.1) g sc demand =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Concurrent_flow: epsilon must lie in (0,1)";
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_gk @@ fun () -> begin
    let m = Graph.m g in
    let mf = float_of_int (max 2 m) in
    let delta = (1.0 +. epsilon) /. Float.pow ((1.0 +. epsilon) *. mf) (1.0 /. epsilon) in
    let caps = Array.init m (Graph.cap g) in
    let length = Array.make m 0.0 in
    Array.iteri (fun e _ -> length.(e) <- delta /. caps.(e)) length;
    (* [volume] stays a full fold on purpose — see [solve]. *)
    let volume () =
      let d = ref 0.0 in
      for e = 0 to m - 1 do
        d := !d +. (length.(e) *. caps.(e))
      done;
      !d
    in
    let commodities = Demand.support demand in
    let positions =
      Array.of_list (List.map (Slice_candidates.position sc) commodities)
    in
    let counts = Array.make (Slice_candidates.ncands sc) 0.0 in
    let present = Array.make (Slice_candidates.ncands sc) false in
    let record c amount =
      counts.(c) <- counts.(c) +. amount;
      present.(c) <- true
    in
    let local_length =
      Array.init (Slice_candidates.edge_count sc) (fun l ->
          length.(Slice_candidates.edge sc l))
    in
    (* Feasibility probe: every commodity must have at least one path. *)
    Array.iter
      (fun i ->
        if i < 0 || Slice_candidates.is_empty_at sc i then
          invalid_arg "Concurrent_flow.on_slices: demanded pair has no candidates")
      positions;
    if Obs.tracing () then
      Obs.event "gk.solve"
        ~attrs:
          [
            ("pairs", Trace.Int (List.length commodities));
            ("epsilon", Trace.Float epsilon);
          ];
    let max_phases = 100_000 in
    let phases = ref 0 in
    while volume () < 1.0 && !phases < max_phases do
      incr phases;
      if Obs.tracing () then
        Obs.event "gk.phase"
          ~attrs:
            [ ("phase", Trace.Int !phases); ("volume", Trace.Float (volume ())) ];
      List.iteri
        (fun k (s, t) ->
          let i = positions.(k) in
          let remaining = ref (Demand.get demand s t) in
          while !remaining > 1e-12 && volume () < 1.0 do
            let c = Slice_candidates.cheapest sc local_length i in
            if c < 0 then remaining := 0.0
            else begin
              let bottleneck =
                Slice_candidates.fold_edges sc c
                  (fun acc e -> Float.min acc caps.(e))
                  infinity
              in
              let amount = Float.min !remaining bottleneck in
              record c amount;
              Slice_candidates.iter_local sc c (fun l ->
                  let e = Slice_candidates.edge sc l in
                  length.(e) <- length.(e) *. (1.0 +. (epsilon *. amount /. caps.(e)));
                  local_length.(l) <- length.(e));
              remaining := !remaining -. amount
            end
          done)
        commodities
    done;
    if !phases >= max_phases then failwith "Concurrent_flow: phase budget exceeded";
    let routing =
      Routing.make
        (List.mapi
           (fun k pair ->
             ( pair,
               Slice_candidates.pair_distribution sc ~counts ~present ~overflow:None
                 positions.(k) ))
           commodities)
    in
    (routing, Routing.congestion g routing demand)
  end

let unrestricted ?epsilon g demand =
  solve ?epsilon g ~oracle:(fun ~weight s t -> Shortest.dijkstra_path g ~weight s t) demand
