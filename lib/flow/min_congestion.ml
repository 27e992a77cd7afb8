module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Simplex = Sso_lp.Simplex
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let span_lp = Obs.span "stage4.lp"
let span_mwu = Obs.span "stage4.mwu"
let span_lp_unrestricted = Obs.span "opt.lp_unrestricted"
let mwu_iterations = Obs.counter "mwu.iterations"
let mwu_oracle_calls = Obs.counter "mwu.oracle_calls"
let mwu_sssp_batches = Obs.counter "mwu.sssp_batches"

(* ---------- Exact LP on a candidate path system ---------- *)

let lp_on_slices g sc demand =
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_lp @@ fun () -> begin
    let entries =
      Demand.fold
        (fun s t amount acc ->
          let i = Slice_candidates.position sc (s, t) in
          if i < 0 || Slice_candidates.is_empty_at sc i then
            invalid_arg "Min_congestion.lp_on_slices: demanded pair has no candidates";
          ((s, t), amount, Slice_candidates.range sc i) :: acc)
        demand []
    in
    (* Variables: one absolute flow per (pair, candidate), numbered pair by
       pair in [entries] order and in generation order within a pair, plus
       the congestion bound z as the last variable. *)
    let next = ref 0 in
    let indexed =
      List.map
        (fun (pair, amount, (lo, hi)) ->
          let vars = List.init (hi - lo) (fun k -> (!next + k, lo + k)) in
          next := !next + (hi - lo);
          (pair, amount, vars))
        entries
    in
    let z = !next in
    (* Demand satisfaction: sum of a pair's path flows = demand. *)
    let demand_rows =
      List.map
        (fun (_, amount, vars) ->
          {
            Simplex.coeffs = List.map (fun (v, _) -> (v, 1.0)) vars;
            relation = Simplex.Eq;
            rhs = amount;
          })
        indexed
    in
    (* Capacity rows: per edge, total flow ≤ cap · z. *)
    let per_edge = Hashtbl.create 64 in
    List.iter
      (fun (_, _, vars) ->
        List.iter
          (fun (v, c) ->
            Slice_candidates.iter_edges sc c (fun e ->
                let cur = try Hashtbl.find per_edge e with Not_found -> [] in
                Hashtbl.replace per_edge e ((v, 1.0) :: cur)))
          vars)
      indexed;
    let capacity_rows =
      Hashtbl.fold
        (fun e coeffs acc ->
          {
            Simplex.coeffs = (z, -.Graph.cap g e) :: coeffs;
            relation = Simplex.Le;
            rhs = 0.0;
          }
          :: acc)
        per_edge []
    in
    let problem =
      {
        Simplex.num_vars = z + 1;
        objective = [ (z, 1.0) ];
        constraints = demand_rows @ capacity_rows;
      }
    in
    match Simplex.solve problem with
    | Simplex.Infeasible | Simplex.Unbounded ->
        failwith "Min_congestion.lp_on_slices: LP should always be feasible and bounded"
    | Simplex.Optimal { objective; solution } ->
        let routing =
          Routing.make
            (List.map
               (fun (pair, _, vars) ->
                 (* Simplex solutions can carry -1e-15-scale noise. *)
                 ( pair,
                   List.map
                     (fun (v, c) -> (Float.max 0.0 solution.(v), Slice_candidates.path sc c))
                     vars ))
               indexed)
        in
        (routing, Float.max 0.0 objective)
  end

(* ---------- Multiplicative weights ----------

   Zero-sum game view: the adversary maintains a distribution over edges
   (implicitly, via exponential weights on cumulative normalized loads);
   the router best-responds by sending each commodity along its cheapest
   admissible path under those weights; the average of the best responses
   converges to the min-congestion routing at rate O(width·√(ln m / T)).

   One game serves every MWU solver.  It runs over a local edge space: the
   identity over the graph's m edges for the shortest-path and hop-limited
   oracles, the candidate index's local edges for the candidate solver.  A
   solver plugs in only its best response and how plays become a routing. *)

module Path_map = Map.Make (Path)

(* What a solver plugs into [game].  Per-edge arrays are indexed by the
   solver's local edge space, whose size is [Array.length caps]; responses
   ['r] come back in support order. *)
type 'r player = {
  caps : float array;  (* local edge -> capacity *)
  respond : float array -> 'r array;  (* every pair's answer to local weights *)
  answered : 'r -> bool;  (* false when the pair has no admissible path *)
  add_load : float array -> 'r -> float -> unit;  (* loads, answer, amount *)
  record : int -> 'r -> unit;  (* one play of the pair at a support index *)
  support_paths : unit -> int;  (* distinct paths played so far *)
  seed : u_norm:float -> float array -> int;  (* warm start into cum; its plays *)
  routing : unit -> Routing.t;  (* the average of all plays *)
}

(* Per-commodity best responses are independent within a round, so they
   fan out on the pool; results come back in input order, and loads are
   folded serially in support order, so the routing is bit-identical for
   any job count.  Tiny supports stay serial — the dispatch overhead would
   dominate (the cutoff is a constant, never the job count, to preserve
   determinism). *)
let fan_out ?pool ~pairs f xs =
  if pairs < 4 then Array.map f xs else Pool.parallel_map ?pool f xs

let game ?(iters = 300) ~label g demand player =
  if iters <= 0 then invalid_arg "Min_congestion: iters must be positive";
  if Demand.support_size demand = 0 then Some (Routing.make [], 0.0)
  else Obs.with_span span_mwu @@ fun () -> begin
    let support = Array.of_list (Demand.support demand) in
    let pairs = Array.length support in
    if Obs.tracing () then
      Obs.event "mwu.solve"
        ~attrs:
          [
            ("solver", Trace.String label);
            ("pairs", Trace.Int pairs);
            ("iters", Trace.Int iters);
          ];
    (* Demand amounts are loop constants, hoisted out of the rounds. *)
    let amounts = Array.map (fun (s, t) -> Demand.get demand s t) support in
    let p = player support amounts in
    let caps = p.caps in
    let size = Array.length caps in
    let best_responses w =
      Obs.incr ~by:pairs mwu_oracle_calls;
      p.respond w
    in
    (* The best responses' weights: uniform 1/cap for the feasibility
       probe, then the adversary's, rewritten in place every round (the
       exp is hoisted out of the oracles' inner loops).  The probe also
       yields the width normalizer U, the congestion of its routing. *)
    let warr = Array.map (fun c -> 1.0 /. c) caps in
    let probe = best_responses warr in
    if not (Array.for_all p.answered probe) then None
    else begin
      let loads = Array.make size 0.0 in
      Array.iteri (fun i r -> p.add_load loads r amounts.(i)) probe;
      let u_norm = ref 1e-12 in
      Array.iteri
        (fun l load ->
          let c = load /. caps.(l) in
          if c > !u_norm then u_norm := c)
        loads;
      let u_norm = !u_norm in
      (* η is the game's step size, not a loop bound: it keeps the graph's
         m whatever the edge space. *)
      let eta =
        Float.sqrt (4.0 *. Float.log (float_of_int (max 2 (Graph.m g))) /. float_of_int iters)
      in
      let cum = Array.make size 0.0 in
      let base_plays = p.seed ~u_norm cum in
      let round_loads = Array.make size 0.0 in
      for round = 1 to iters do
        Obs.incr mwu_iterations;
        (* A float loop: folding [Float.max] over the array boxes each element. *)
        let max_cum = ref neg_infinity in
        for l = 0 to size - 1 do
          if cum.(l) > !max_cum then max_cum := cum.(l)
        done;
        let max_cum = !max_cum in
        for l = 0 to size - 1 do
          warr.(l) <- Float.exp (eta *. (cum.(l) -. max_cum)) /. caps.(l)
        done;
        let responses = best_responses warr in
        Array.fill round_loads 0 size 0.0;
        Array.iteri
          (fun i r ->
            p.record i r;
            p.add_load round_loads r amounts.(i))
          responses;
        for l = 0 to size - 1 do
          cum.(l) <- cum.(l) +. (round_loads.(l) /. (caps.(l) *. u_norm))
        done;
        (* Per-round convergence telemetry.  The cumulative normalized load
           satisfies cum(e)·u_norm = (total load on e so far)/cap(e), so
           max_e cum · u_norm / plays is exactly the congestion of the
           routing averaged over all plays (warm start included). *)
        if Obs.tracing () then begin
          let round_peak = ref 0.0 and cum_peak = ref neg_infinity in
          for l = 0 to size - 1 do
            let rc = round_loads.(l) /. caps.(l) in
            if rc > !round_peak then round_peak := rc;
            if cum.(l) > !cum_peak then cum_peak := cum.(l)
          done;
          let plays = float_of_int (base_plays + round) in
          Obs.event "mwu.round"
            ~attrs:
              [
                ("solver", Trace.String label);
                ("round", Trace.Int round);
                ("round_congestion", Trace.Float !round_peak);
                ("avg_congestion", Trace.Float (!cum_peak *. u_norm /. plays));
                ("potential", Trace.Float !cum_peak);
                ("support_paths", Trace.Int (p.support_paths ()));
              ]
        end
      done;
      let routing = p.routing () in
      Some (routing, Routing.congestion g routing demand)
    end
  end

(* ---------- Candidate sets as arena slices ----------

   Stage-4 candidate solving runs on the flat index of {!Slice_candidates}:
   the candidate set is unpacked once per solve, best responses are
   candidate indices, and every round's oracle/accumulation loops walk int
   arrays in place.

   The edge space is the index's local edges plus any warm-path edges
   outside it, so a round costs O(candidate edges), not O(m).  The output
   stays bit-identical to a graph-sized game: an untouched edge keeps
   cum = 0 and load 0, every cum is >= 0 (so the max over local edges is
   the max over all edges), and u_norm and the trace peaks are maxima,
   which do not depend on order. *)
let candidates ?pool ?warm g sc support amounts =
  let pairs = Array.length support in
  (* Pair positions in the candidate index, [-1] for uncovered pairs. *)
  let positions = Array.map (Slice_candidates.position sc) support in
  (* Warm distributions resolved against the index: each path carries
     its candidate ([-1] outside the candidate set) and its local edge
     ids.  Edges of such overflow paths that the index lacks are
     numbered after the index's own, through a lookup built only when
     an overflow path shows up. *)
  let nlocal = Slice_candidates.edge_count sc in
  let extra = ref [] in
  let lookup =
    lazy
      (let h = Hashtbl.create ((2 * nlocal) + 1) in
       for l = 0 to nlocal - 1 do
         Hashtbl.replace h (Slice_candidates.edge sc l) l
       done;
       h)
  in
  let local_of e =
    let h = Lazy.force lookup in
    match Hashtbl.find_opt h e with
    | Some l -> l
    | None ->
        let l = nlocal + List.length !extra in
        Hashtbl.add h e l;
        extra := e :: !extra;
        l
  in
  let warm_dists =
    match warm with
    | None -> [||]
    | Some (previous, _) ->
        Array.mapi
          (fun i (s, t) ->
            List.map
              (fun (w, p) ->
                let c =
                  if positions.(i) < 0 then -1 else Slice_candidates.find sc positions.(i) p
                in
                let locals =
                  if c >= 0 then Slice_candidates.local_edges sc c
                  else Array.map local_of p.Path.edges
                in
                (w, p, c, locals))
              (Routing.distribution previous s t))
          support
  in
  let extra = Array.of_list (List.rev !extra) in
  let caps =
    Array.init (nlocal + Array.length extra) (fun l ->
        Graph.cap g (if l < nlocal then Slice_candidates.edge sc l else extra.(l - nlocal)))
  in
  let ncands = Slice_candidates.ncands sc in
  let counts = Array.make ncands 0.0 in
  let present = Array.make ncands false in
  let overflow : (int, (Path.t * float) list) Hashtbl.t = Hashtbl.create 7 in
  (* Warm start: treat a previous routing as [weight] already-played
     rounds — seed both the play counts (so the average is anchored) and
     the cumulative loads (so the adversary remembers). *)
  let seed ~u_norm cum =
    match warm with
    | None -> 0
    | Some (_, weight) ->
        if weight <= 0 then invalid_arg "Min_congestion: warm-start weight must be positive";
        let wf = float_of_int weight in
        Array.iteri
          (fun i dist ->
            match dist with
            | [] -> ()
            | dist ->
                let over = ref Path_map.empty in
                List.iter
                  (fun (w, p, c, _) ->
                    if c >= 0 then begin
                      counts.(c) <- counts.(c) +. (w *. wf);
                      present.(c) <- true
                    end
                    else
                      over :=
                        Path_map.update p
                          (function
                            | None -> Some (w *. wf) | Some c -> Some (c +. (w *. wf)))
                          !over)
                  dist;
                if not (Path_map.is_empty !over) then
                  Hashtbl.replace overflow i
                    (Path_map.fold (fun p c acc -> (p, c) :: acc) !over [] |> List.rev);
                let amount = amounts.(i) in
                List.iter
                  (fun (w, _, _, locals) ->
                    Array.iter
                      (fun l ->
                        cum.(l) <- cum.(l) +. (wf *. w *. amount /. (caps.(l) *. u_norm)))
                      locals)
                  dist)
          warm_dists;
        weight
  in
  let answer w i = if i < 0 then -1 else Slice_candidates.cheapest sc w i in
  {
    caps;
    respond = (fun w -> fan_out ?pool ~pairs (answer w) positions);
    answered = (fun c -> c >= 0);
    add_load =
      (fun loads c amount ->
        Slice_candidates.iter_local sc c (fun l ->
            Array.unsafe_set loads l (Array.unsafe_get loads l +. amount)));
    record =
      (fun _ c ->
        counts.(c) <- counts.(c) +. 1.0;
        present.(c) <- true);
    support_paths =
      (fun () ->
        let n = ref 0 in
        Array.iter (fun p -> if p then incr n) present;
        Hashtbl.iter (fun _ over -> n := !n + List.length over) overflow;
        !n);
    seed;
    routing =
      (fun () ->
        Routing.make
          (List.mapi
             (fun i pair ->
               ( pair,
                 Slice_candidates.pair_distribution sc ~counts ~present
                   ~overflow:(Hashtbl.find_opt overflow i)
                   positions.(i) ))
             (Array.to_list support)));
  }

(* The trace labels "on_paths"/"on_paths_warm" name the candidate-set
   solver in recorded traces; they are kept so traces stay comparable
   across versions. *)
let mwu_on_slices ?pool ?iters g sc demand =
  match game ?iters ~label:"on_paths" g demand (candidates ?pool g sc) with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_slices: demanded pair has no candidates"

let mwu_on_slices_warm ?pool ?iters ~warm ~warm_weight g sc demand =
  match
    game ?iters ~label:"on_paths_warm" g demand
      (candidates ?pool ~warm:(warm, warm_weight) g sc)
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_slices_warm: demanded pair has no candidates"

(* ---------- Shortest-path and hop-limited oracles ----------

   The edge space is the identity over the graph's m edges.  Each round
   groups the support by source and answers all of a source's targets
   from one single-source computation ([oracle ~weight s targets]: a
   Dijkstra pass or the hop-limited DP), which is where the support of
   real demands — gravity matrices, incast, ladders — collapses many pairs
   onto few sources.  [Demand.support] is lexicographically sorted, so
   equal sources form consecutive runs; flattening group answers in group
   order therefore preserves support order exactly. *)
let shortest_paths ?pool g ~oracle support _amounts =
  let pairs = Array.length support in
  let groups =
    let acc = ref [] in
    let i = ref 0 in
    while !i < pairs do
      let s = fst support.(!i) in
      let j = ref !i in
      while !j < pairs && fst support.(!j) = s do incr j done;
      acc := (s, Array.init (!j - !i) (fun k -> snd support.(!i + k))) :: !acc;
      i := !j
    done;
    Array.of_list (List.rev !acc)
  in
  let counts = Array.make pairs Path_map.empty in
  let path = function Some p -> p | None -> assert false (* probed feasible *) in
  {
    caps = Array.init (Graph.m g) (Graph.cap g);
    respond =
      (fun w ->
        Obs.incr ~by:(Array.length groups) mwu_sssp_batches;
        let weight e = w.(e) in
        Array.concat
          (Array.to_list (fan_out ?pool ~pairs (fun (s, ts) -> oracle ~weight s ts) groups)));
    answered = Option.is_some;
    add_load =
      (fun loads r amount ->
        Array.iter (fun e -> loads.(e) <- loads.(e) +. amount) (path r).Path.edges);
    record =
      (fun i r ->
        counts.(i) <-
          Path_map.update (path r)
            (function None -> Some 1.0 | Some c -> Some (c +. 1.0))
            counts.(i));
    support_paths = (fun () -> Array.fold_left (fun n d -> n + Path_map.cardinal d) 0 counts);
    seed = (fun ~u_norm:_ _ -> 0);
    routing =
      (fun () ->
        Routing.make
          (List.mapi
             (fun i pair -> (pair, Path_map.fold (fun p c acc -> (c, p) :: acc) counts.(i) []))
             (Array.to_list support)));
  }

let mwu_unrestricted ?pool ?iters g demand =
  let oracle ~weight s ts = Shortest.dijkstra_paths g ~weight s ts in
  match game ?iters ~label:"unrestricted" g demand (shortest_paths ?pool g ~oracle) with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_unrestricted: graph is disconnected"

let mwu_unrestricted_avoiding ?pool ?iters ~avoid g demand =
  let oracle ~weight s ts =
    Shortest.dijkstra_paths g ~weight:(fun e -> if avoid e then infinity else weight e) s ts
  in
  game ?iters ~label:"avoiding" g demand (shortest_paths ?pool g ~oracle)

let mwu_hop_limited ?pool ?iters ~max_hops g demand =
  let oracle ~weight s ts = Shortest.hop_limited_paths g ~weight ~max_hops s ts in
  game ?iters ~label:"hop_limited" g demand (shortest_paths ?pool g ~oracle)

(* ---------- Exact unrestricted LP (edge formulation) ---------- *)

let lp_unrestricted g demand =
  if Demand.support_size demand = 0 then 0.0
  else Obs.with_span span_lp_unrestricted @@ fun () -> begin
    let n = Graph.n g and m = Graph.m g in
    let commodities = Demand.support demand in
    let k = List.length commodities in
    (* Variables: for commodity i and edge e, flow in the u→v direction is
       var (i·2m + 2e) and v→u is var (i·2m + 2e + 1); z is the last. *)
    let z = k * 2 * m in
    let var i e dir = (i * 2 * m) + (2 * e) + dir in
    let conservation =
      List.concat
        (List.mapi
           (fun i (s, t) ->
             let amount = Demand.get demand s t in
             List.filter_map
               (fun v ->
                 let coeffs = ref [] in
                 Array.iter
                   (fun (e, _) ->
                     let u, _ = Graph.endpoints g e in
                     (* u→v direction leaves u and enters the other end. *)
                     let dir_out = if v = u then 0 else 1 in
                     coeffs := (var i e dir_out, 1.0) :: (var i e (1 - dir_out), -1.0) :: !coeffs)
                   (Graph.adj g v);
                 let rhs = if v = s then amount else if v = t then -.amount else 0.0 in
                 if !coeffs = [] && rhs = 0.0 then None
                 else Some { Simplex.coeffs = !coeffs; relation = Simplex.Eq; rhs })
               (List.init n Fun.id))
           commodities)
    in
    let capacity =
      List.init m (fun e ->
          let coeffs =
            List.concat
              (List.mapi (fun i _ -> [ (var i e 0, 1.0); (var i e 1, 1.0) ]) commodities)
          in
          {
            Simplex.coeffs = (z, -.Graph.cap g e) :: coeffs;
            relation = Simplex.Le;
            rhs = 0.0;
          })
    in
    let problem =
      {
        Simplex.num_vars = z + 1;
        objective = [ (z, 1.0) ];
        constraints = conservation @ capacity;
      }
    in
    match Simplex.solve problem with
    | Simplex.Optimal { objective; _ } -> Float.max 0.0 objective
    | Simplex.Infeasible | Simplex.Unbounded ->
        failwith "Min_congestion.lp_unrestricted: LP should be feasible and bounded"
  end

(* ---------- Certified lower bounds ---------- *)

let lower_bound_sparse_cut g demand =
  let per_pair =
    Demand.fold
      (fun s t amount acc ->
        let cutcap = Maxflow.max_flow g s t in
        if cutcap > 0.0 then Float.max acc (amount /. cutcap) else acc)
      demand 0.0
  in
  (* Volume bound: every unit of (s,t) demand occupies at least hop(s,t)
     units of capacity, and total capacity is finite. *)
  let volume =
    Demand.fold
      (fun s t amount acc ->
        match Shortest.bfs_dist g s with
        | dist when dist.(t) <> max_int -> acc +. (amount *. float_of_int dist.(t))
        | _ -> acc)
      demand 0.0
  in
  Float.max per_pair (volume /. Graph.total_capacity g)
