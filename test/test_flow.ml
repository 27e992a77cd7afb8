(* Tests for routings and the min-congestion solvers, including the
   LP-vs-MWU cross-validation that justifies using MWU at scale. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Yen = Sso_graph.Yen
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Rounding = Sso_flow.Rounding
module Concurrent_flow = Sso_flow.Concurrent_flow
module Path_system = Sso_core.Path_system

let square () =
  (* 0-1-3 and 0-2-3: two disjoint two-hop routes. *)
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 3);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 3);
  Graph.Builder.build b

let square_paths g =
  [ Path.of_vertices g [ 0; 1; 3 ]; Path.of_vertices g [ 0; 2; 3 ] ]

(* Hand-made candidate sets go through a path system, the one way to build
   a Stage-4 candidate index. *)
let candidates g cands =
  Path_system.to_slice_candidates (Path_system.of_pairs g cands) (List.map fst cands)

(* Routing basics *)

let test_routing_normalizes () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make [ ((0, 3), [ (2.0, upper); (2.0, lower) ]) ] in
  let dist = Routing.distribution r 0 3 in
  List.iter (fun (w, _) -> Alcotest.(check (float 1e-9)) "normalized" 0.5 w) dist;
  Alcotest.(check int) "two paths" 2 (List.length dist)

let test_routing_merges_duplicates () =
  let g = square () in
  let p = List.hd (square_paths g) in
  let r = Routing.make [ ((0, 3), [ (1.0, p); (3.0, p) ]) ] in
  Alcotest.(check int) "merged" 1 (List.length (Routing.distribution r 0 3))

let test_routing_rejects () =
  let g = square () in
  let p = List.hd (square_paths g) in
  Alcotest.check_raises "wrong endpoints"
    (Invalid_argument "Routing.make: path endpoints do not match pair") (fun () ->
      ignore (Routing.make [ ((1, 3), [ (1.0, p) ]) ]));
  Alcotest.check_raises "zero mass"
    (Invalid_argument "Routing.make: weights must have positive sum") (fun () ->
      ignore (Routing.make [ ((0, 3), [ (0.0, p) ]) ]))

let test_routing_congestion () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let d = Demand.single_pair 0 3 2.0 in
  let split = Routing.make [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
  Alcotest.(check (float 1e-9)) "even split" 1.0 (Routing.congestion g split d);
  let solo = Routing.singleton_paths [ ((0, 3), upper) ] in
  Alcotest.(check (float 1e-9)) "single path" 2.0 (Routing.congestion g solo d);
  Alcotest.(check (float 1e-9)) "empty demand" 0.0 (Routing.congestion g solo Demand.empty)

let test_routing_respects_capacity () =
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:4.0 b 0 1);
  let g = Graph.Builder.build b in
  let p = Path.of_vertices g [ 0; 1 ] in
  let r = Routing.singleton_paths [ ((0, 1), p) ] in
  Alcotest.(check (float 1e-9)) "load over capacity" 0.5
    (Routing.congestion g r (Demand.single_pair 0 1 2.0))

let test_routing_dilation () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  let q = Path.of_vertices g [ 0; 1 ] in
  let r = Routing.make [ ((0, 3), [ (1.0, p) ]); ((0, 1), [ (1.0, q) ]) ] in
  Alcotest.(check int) "dilation over support" 3
    (Routing.dilation r (Demand.of_list [ (0, 3, 1.0); (0, 1, 1.0) ]));
  Alcotest.(check int) "restricted support" 1
    (Routing.dilation r (Demand.single_pair 0 1 1.0))

let test_routing_is_integral_on () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
  Alcotest.(check bool) "half-half on 2 packets" true
    (Routing.is_integral_on r (Demand.single_pair 0 3 2.0));
  Alcotest.(check bool) "half-half on 1 packet" false
    (Routing.is_integral_on r (Demand.single_pair 0 3 1.0))

let test_merge_convex_bound () =
  (* Lemma 5.15: cong(R, d1+d2) ≤ cong(R1,d1) + cong(R2,d2). *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let d1 = Demand.single_pair 0 3 1.0 and d2 = Demand.single_pair 0 3 2.0 in
  let r1 = Routing.singleton_paths [ ((0, 3), upper) ] in
  let r2 = Routing.singleton_paths [ ((0, 3), lower) ] in
  let merged = Routing.merge_convex (d1, r1) (d2, r2) in
  let total = Demand.add d1 d2 in
  Alcotest.(check bool) "demand-sum bound" true
    (Routing.congestion g merged total
    <= Routing.congestion g r1 d1 +. Routing.congestion g r2 d2 +. 1e-9);
  (* The mixture puts 1/3 on upper and 2/3 on lower. *)
  let dist = Routing.distribution merged 0 3 in
  let w_upper =
    List.fold_left (fun acc (w, p) -> if Path.equal p upper then acc +. w else acc) 0.0 dist
  in
  Alcotest.(check (float 1e-9)) "mixture weight" (1.0 /. 3.0) w_upper

let test_sample_path () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make [ ((0, 3), [ (1.0, upper); (0.0, lower) ]) ] in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    Alcotest.(check bool) "always the positive-weight path" true
      (Path.equal (Routing.sample_path rng r 0 3) upper)
  done

(* LP on paths *)

let test_lp_splits () =
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let routing, cong = Min_congestion.lp_on_slices g cands d in
  Alcotest.(check (float 1e-6)) "perfect split" 1.0 cong;
  Alcotest.(check (float 1e-6)) "consistent" 1.0 (Routing.congestion g routing d)

let test_lp_single_candidate () =
  let g = square () in
  let cands = candidates g [ ((0, 3), [ List.hd (square_paths g) ]) ] in
  let d = Demand.single_pair 0 3 3.0 in
  let _, cong = Min_congestion.lp_on_slices g cands d in
  Alcotest.(check (float 1e-6)) "forced congestion" 3.0 cong

let test_lp_competing_pairs () =
  (* Path graph 0-1-2: pairs (0,1) and (0,2) both must use edge 0. *)
  let g = Gen.path_graph 3 in
  let p01 = Path.of_vertices g [ 0; 1 ] in
  let p02 = Path.of_vertices g [ 0; 1; 2 ] in
  let cands = candidates g [ ((0, 1), [ p01 ]); ((0, 2), [ p02 ]) ] in
  let d = Demand.of_list [ (0, 1, 1.0); (0, 2, 1.0) ] in
  let _, cong = Min_congestion.lp_on_slices g cands d in
  Alcotest.(check (float 1e-6)) "shared edge" 2.0 cong

let test_lp_missing_candidates () =
  let g = square () in
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Min_congestion.lp_on_slices: demanded pair has no candidates")
    (fun () ->
      ignore (Min_congestion.lp_on_slices g (candidates g []) (Demand.single_pair 0 3 1.0)))

let test_lp_empty_demand () =
  let g = square () in
  let _, cong = Min_congestion.lp_on_slices g (candidates g []) Demand.empty in
  Alcotest.(check (float 1e-9)) "empty" 0.0 cong

(* MWU vs LP cross-validation *)

(* The k hop-shortest paths (Yen) of every demanded pair. *)
let yen_candidates g k demand =
  candidates g
    (List.map
       (fun (s, t) -> ((s, t), Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k s t))
       (Demand.support demand))

(* Golden pins: the congestion bits and the encoded-routing digest of the
   exact LP on fixed instances.  They pin the simplex input order — pairs,
   candidates, per-edge rows — so any change to how the LP is assembled
   shows up here. *)

let pin (routing, cong) =
  ( Int64.bits_of_float cong,
    Sso_artifact.Codec.fnv1a64 (Sso_artifact.Codec.encode_routing routing) )

let check_pin name expected got =
  Alcotest.(check (pair int64 int64)) name expected (pin got)

let lp_pin_instances () =
  let g = square () in
  let path3 = Gen.path_graph 3 in
  let grid = Gen.grid 3 3 in
  let rng = Rng.create 21 in
  let random () =
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:5 in
    (g, yen_candidates g 4 d, d)
  in
  let r1 = random () in
  let r2 = random () in
  let grid_demand = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.5) ] in
  [
    ("splits", (g, candidates g [ ((0, 3), square_paths g) ], Demand.single_pair 0 3 2.0));
    ( "single candidate",
      ( g,
        candidates g [ ((0, 3), [ List.hd (square_paths g) ]) ],
        Demand.single_pair 0 3 3.0 ) );
    ( "competing pairs",
      ( path3,
        candidates path3
          [
            ((0, 1), [ Path.of_vertices path3 [ 0; 1 ] ]);
            ((0, 2), [ Path.of_vertices path3 [ 0; 1; 2 ] ]);
          ],
        Demand.of_list [ (0, 1, 1.0); (0, 2, 1.0) ] ) );
    ("grid yen", (grid, yen_candidates grid 3 grid_demand, grid_demand));
    ("random yen 1", r1);
    ("random yen 2", r2);
  ]

let lp_golden =
  [
    ("splits", (4607182418800017408L, -7659776275013784408L));
    ("single candidate", (4613937818241073152L, -3729218785477701883L));
    ("competing pairs", (4611686018427387904L, -4397634675861199159L));
    ("grid yen", (4610184818551597739L, 6302305936111912931L));
    ("random yen 1", (4604180019048437077L, 435140694161804154L));
    ("random yen 2", (4605681218924227243L, 58269219597668869L));
  ]

let test_lp_golden_pins () =
  List.iter
    (fun (name, (g, cands, d)) ->
      check_pin name (List.assoc name lp_golden) (Min_congestion.lp_on_slices g cands d))
    (lp_pin_instances ())

let test_mwu_matches_lp () =
  let rng = Rng.create 21 in
  for trial = 1 to 5 do
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:5 in
    let cands = yen_candidates g 4 d in
    let _, lp = Min_congestion.lp_on_slices g cands d in
    let _, mwu = Min_congestion.mwu_on_slices ~iters:800 g cands d in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: mwu within 15%% of lp (lp=%.3f mwu=%.3f)" trial lp mwu)
      true
      (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.15) +. 0.05)
  done

let test_mwu_on_square () =
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let _, cong = Min_congestion.mwu_on_slices ~iters:500 g cands d in
  Alcotest.(check bool) "near 1.0" true (cong < 1.1)

let test_mwu_unrestricted_square () =
  let g = square () in
  let d = Demand.single_pair 0 3 2.0 in
  let _, cong = Min_congestion.mwu_unrestricted ~iters:500 g d in
  Alcotest.(check bool) "uses both routes" true (cong < 1.1);
  Alcotest.(check bool) "not below optimum" true (cong >= 1.0 -. 1e-6)

let test_unrestricted_lp_matches_mwu () =
  let rng = Rng.create 31 in
  let g = Gen.cycle 6 in
  let d = Demand.of_list [ (0, 3, 1.0); (1, 4, 1.0) ] in
  let lp = Min_congestion.lp_unrestricted g d in
  let _, mwu = Min_congestion.mwu_unrestricted ~iters:800 g d in
  ignore rng;
  Alcotest.(check bool)
    (Printf.sprintf "cycle optimum (lp=%.3f mwu=%.3f)" lp mwu)
    true
    (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.15) +. 0.05)

let test_lp_unrestricted_known_value () =
  (* Two disjoint 2-hop routes for 2 units: optimum congestion 1. *)
  let g = square () in
  let d = Demand.single_pair 0 3 2.0 in
  Alcotest.(check (float 1e-5)) "square optimum" 1.0 (Min_congestion.lp_unrestricted g d)

let test_hop_limited_forces_direct () =
  (* multi_path [1;3]: a direct edge and a 3-hop detour.  With max_hops 1
     everything must use the direct edge. *)
  let g = Gen.multi_path [ 1; 3 ] in
  let d = Demand.single_pair 0 1 2.0 in
  (match Min_congestion.mwu_hop_limited ~iters:300 ~max_hops:1 g d with
  | None -> Alcotest.fail "expected feasible"
  | Some (_, cong) -> Alcotest.(check (float 1e-6)) "all on direct edge" 2.0 cong);
  match Min_congestion.mwu_hop_limited ~iters:600 ~max_hops:3 g d with
  | None -> Alcotest.fail "expected feasible"
  | Some (_, cong) -> Alcotest.(check bool) "split when allowed" true (cong < 1.3)

let test_hop_limited_infeasible () =
  let g = Gen.path_graph 5 in
  Alcotest.(check bool) "too few hops" true
    (Min_congestion.mwu_hop_limited ~max_hops:2 g (Demand.single_pair 0 4 1.0) = None)

let test_lower_bound_sound () =
  let rng = Rng.create 41 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 10 0.4 in
    let d = Demand.random_pairs rng ~n:10 ~pairs:4 in
    let bound = Min_congestion.lower_bound_sparse_cut g d in
    let opt = Min_congestion.lp_unrestricted g d in
    Alcotest.(check bool)
      (Printf.sprintf "lower bound below optimum (%.3f <= %.3f)" bound opt)
      true (bound <= opt +. 1e-6)
  done

let test_lower_bound_tight_on_bottleneck () =
  let g = Gen.path_graph 3 in
  let d = Demand.single_pair 0 2 4.0 in
  Alcotest.(check (float 1e-9)) "cut bound" 4.0 (Min_congestion.lower_bound_sparse_cut g d)

(* Extra routing coverage *)

let test_routing_restrict () =
  let g = square () in
  let p = List.hd (square_paths g) in
  let q = Path.of_vertices g [ 0; 1 ] in
  let r = Routing.make [ ((0, 3), [ (1.0, p) ]); ((0, 1), [ (1.0, q) ]) ] in
  let restricted = Routing.restrict r [ (0, 3) ] in
  Alcotest.(check int) "kept one pair" 1 (List.length (Routing.pairs restricted));
  Alcotest.(check bool) "dropped pair gone" true (Routing.distribution restricted 0 1 = [])

let test_routing_covers () =
  let g = square () in
  let p = List.hd (square_paths g) in
  let r = Routing.singleton_paths [ ((0, 3), p) ] in
  Alcotest.(check bool) "covers its pair" true (Routing.covers r (Demand.single_pair 0 3 1.0));
  Alcotest.(check bool) "missing pair" false (Routing.covers r (Demand.single_pair 1 2 1.0))

let test_routing_support_sparsity () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r =
    Routing.make
      [ ((0, 3), [ (1.0, upper); (1.0, lower) ]); ((0, 1), [ (1.0, Path.of_vertices g [ 0; 1 ]) ]) ]
  in
  Alcotest.(check int) "max support" 2 (Routing.support_sparsity r)

let test_routing_edge_congestion () =
  let g = square () in
  let upper = List.hd (square_paths g) in
  let r = Routing.singleton_paths [ ((0, 3), upper) ] in
  let d = Demand.single_pair 0 3 3.0 in
  Alcotest.(check (float 1e-9)) "used edge" 3.0
    (Routing.edge_congestion g r d upper.Path.edges.(0));
  (* Edge 2 belongs to the other route. *)
  Alcotest.(check (float 1e-9)) "unused edge" 0.0 (Routing.edge_congestion g r d 2)

let test_lower_bound_volume_on_long_path () =
  (* On a path graph, hop distances make the volume bound bite: 3 pairs of
     span 4 over 4 edges → at least 3.0 even though each pair's cut bound
     is only 1·d. *)
  let g = Gen.path_graph 5 in
  let d = Demand.of_list [ (0, 4, 1.0); (4, 0, 1.0); (0, 4, 0.0) ] in
  Alcotest.(check bool) "volume bound" true
    (Min_congestion.lower_bound_sparse_cut g d >= 2.0 -. 1e-9)

let test_gk_epsilon_tradeoff () =
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let _, coarse = Concurrent_flow.on_slices ~epsilon:0.5 g cands d in
  let _, fine = Concurrent_flow.on_slices ~epsilon:0.02 g cands d in
  Alcotest.(check bool)
    (Printf.sprintf "both near optimum (%.3f, %.3f)" coarse fine)
    true
    (fine <= 1.05 && coarse <= 1.6);
  Alcotest.(check bool) "fine at least as good" true (fine <= coarse +. 1e-9)

let test_gk_rejects_bad_epsilon () =
  let g = square () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Concurrent_flow.on_slices ~epsilon:1.5 g
            (candidates g [ ((0, 3), square_paths g) ])
            (Demand.single_pair 0 3 1.0));
       false
     with Invalid_argument _ -> true)

(* Warm-started MWU *)

let test_warm_start_preserves_good_solution () =
  (* Seed with the exact optimum at high weight + few fresh rounds: the
     result must stay near-optimal. *)
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let optimal, lp = Min_congestion.lp_on_slices g cands d in
  let _, warm =
    Min_congestion.mwu_on_slices_warm ~iters:5 ~warm:optimal ~warm_weight:100 g cands d
  in
  Alcotest.(check bool)
    (Printf.sprintf "stays near optimum (lp %.3f warm %.3f)" lp warm)
    true
    (warm <= (lp *. 1.1) +. 0.02)

let test_warm_start_recovers_from_bad_seed () =
  (* Seed with the worst routing at low weight + many fresh rounds: MWU
     must still converge. *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  ignore lower;
  let bad = Routing.singleton_paths [ ((0, 3), upper) ] in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let _, recovered =
    Min_congestion.mwu_on_slices_warm ~iters:600 ~warm:bad ~warm_weight:1 g cands d
  in
  Alcotest.(check bool) (Printf.sprintf "recovered %.3f" recovered) true (recovered <= 1.15)

let test_warm_start_handles_new_pairs () =
  (* The new demand has a pair the warm routing never saw. *)
  let g = Gen.grid 3 3 in
  let d_old = Demand.single_pair 0 8 1.0 in
  let warm, _ = Min_congestion.lp_on_slices g (yen_candidates g 3 d_old) d_old in
  let d_new = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0) ] in
  let cands_new = yen_candidates g 3 d_new in
  let routing, cong =
    Min_congestion.mwu_on_slices_warm ~iters:200 ~warm ~warm_weight:50 g cands_new d_new
  in
  Alcotest.(check bool) "covers the new pair" true (Routing.covers routing d_new);
  Alcotest.(check bool) "finite congestion" true (Float.is_finite cong && cong > 0.0)

let test_warm_start_rejects_bad_weight () =
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 1.0 in
  let warm, _ = Min_congestion.lp_on_slices g cands d in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Min_congestion.mwu_on_slices_warm ~iters:10 ~warm ~warm_weight:0 g cands d);
       false
     with Invalid_argument _ -> true)

(* Garg–Könemann concurrent flow *)

let test_gk_splits_square () =
  let g = square () in
  let cands = candidates g [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let _, cong = Concurrent_flow.on_slices ~epsilon:0.05 g cands d in
  Alcotest.(check bool) (Printf.sprintf "near 1.0 (got %.3f)" cong) true (cong <= 1.1)

let test_gk_matches_lp () =
  let rng = Rng.create 71 in
  for trial = 1 to 4 do
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:5 in
    let cands = yen_candidates g 4 d in
    let _, lp = Min_congestion.lp_on_slices g cands d in
    let _, gk = Concurrent_flow.on_slices ~epsilon:0.05 g cands d in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: gk within 15%% of lp (lp=%.3f gk=%.3f)" trial lp gk)
      true
      (gk >= lp -. 1e-6 && gk <= (lp *. 1.15) +. 0.05)
  done

let test_gk_unrestricted_matches_lp () =
  let g = Gen.cycle 6 in
  let d = Demand.of_list [ (0, 3, 1.0); (1, 4, 1.0) ] in
  let lp = Min_congestion.lp_unrestricted g d in
  let _, gk = Concurrent_flow.unrestricted ~epsilon:0.05 g d in
  Alcotest.(check bool)
    (Printf.sprintf "cycle (lp=%.3f gk=%.3f)" lp gk)
    true
    (gk >= lp -. 1e-6 && gk <= (lp *. 1.15) +. 0.05)

let test_gk_three_engines_agree () =
  (* LP (exact), MWU and GK must all land within a narrow band. *)
  let rng = Rng.create 73 in
  let g = Gen.grid 4 4 in
  let d = Demand.random_pairs rng ~n:16 ~pairs:6 in
  let cands = yen_candidates g 4 d in
  let _, lp = Min_congestion.lp_on_slices g cands d in
  let _, mwu = Min_congestion.mwu_on_slices ~iters:800 g cands d in
  let _, gk = Concurrent_flow.on_slices ~epsilon:0.05 g cands d in
  Alcotest.(check bool)
    (Printf.sprintf "agreement lp=%.3f mwu=%.3f gk=%.3f" lp mwu gk)
    true
    (mwu <= (lp *. 1.15) +. 0.05 && gk <= (lp *. 1.15) +. 0.05)

let test_gk_empty_demand () =
  let g = square () in
  let _, cong = Concurrent_flow.on_slices g (candidates g []) Demand.empty in
  Alcotest.(check (float 1e-9)) "empty" 0.0 cong

let test_gk_missing_candidates () =
  let g = square () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Concurrent_flow.on_slices g (candidates g []) (Demand.single_pair 0 3 1.0));
       false
     with Invalid_argument _ -> true)

let test_gk_respects_capacities () =
  (* Unequal capacities: optimal split is proportional to caps. *)
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:3.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:1.0 b 0 1);
  let g = Graph.Builder.build b in
  let p0 = Path.of_edges g ~src:0 ~dst:1 [| 0 |] in
  let p1 = Path.of_edges g ~src:0 ~dst:1 [| 1 |] in
  let d = Demand.single_pair 0 1 4.0 in
  let _, cong = Concurrent_flow.on_slices ~epsilon:0.05 g (candidates g [ ((0, 1), [ p0; p1 ]) ]) d in
  (* Optimum: 3 on the fat edge, 1 on the thin → congestion 1. *)
  Alcotest.(check bool) (Printf.sprintf "prop split (got %.3f)" cong) true (cong <= 1.1)

(* Rounding *)

let test_round_is_integral () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
  let d = Demand.single_pair 0 3 5.0 in
  let rng = Rng.create 5 in
  let a = Rounding.round rng r d in
  Alcotest.(check (float 1e-9)) "demand preserved" 5.0 (Demand.siz (Rounding.demand_of a));
  Alcotest.(check bool) "induced routing integral" true
    (Routing.is_integral_on (Rounding.to_routing a) d)

let test_round_rejects_fractional_demand () =
  let g = square () in
  let r = Routing.singleton_paths [ ((0, 3), List.hd (square_paths g)) ] in
  let rng = Rng.create 5 in
  Alcotest.check_raises "fractional"
    (Invalid_argument "Rounding.round: demand must be integral") (fun () ->
      ignore (Rounding.round rng r (Demand.single_pair 0 3 0.5)))

let test_rounding_lemma_bound () =
  (* Lemma 6.3: some rounding achieves ≤ 2·cong_R + 3·ln m; best-of-20
     should find one on small instances. *)
  let rng = Rng.create 17 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:6 in
    let cands = yen_candidates g 3 d in
    let fractional, frac_cong = Min_congestion.lp_on_slices g cands d in
    let a = Rounding.best_round ~tries:20 rng g fractional d in
    let bound = (2.0 *. frac_cong) +. (3.0 *. Float.log (float_of_int (Graph.m g))) in
    Alcotest.(check bool)
      (Printf.sprintf "rounding bound (%.3f <= %.3f)" (Rounding.congestion g a) bound)
      true
      (Rounding.congestion g a <= bound +. 1e-6)
  done

let test_local_search_improves () =
  (* Start with both packets on the same route; local search should move
     one to the disjoint alternative. *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let bad : Rounding.assignment = [| ((0, 3), [| upper; upper |]) |] in
  Alcotest.(check (float 1e-9)) "initially congested" 2.0 (Rounding.congestion g bad);
  let improved =
    Rounding.local_search g
      ~candidates:(fun _ _ -> [ upper; lower ])
      bad
  in
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (Rounding.congestion g improved)

let test_local_search_preserves_demand () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let a : Rounding.assignment = [| ((0, 3), [| upper; upper; lower |]) |] in
  let improved = Rounding.local_search g ~candidates:(fun _ _ -> [ upper; lower ]) a in
  Alcotest.(check bool) "same demand" true
    (Demand.equal (Rounding.demand_of a) (Rounding.demand_of improved))

let prop_round_preserves_counts =
  QCheck.Test.make ~name:"rounding preserves per-pair packet counts" ~count:50
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, packets) ->
      let g = square () in
      let upper, lower =
        match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
      in
      let r = Routing.make [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
      let d = Demand.single_pair 0 3 (float_of_int packets) in
      let rng = Rng.create seed in
      let a = Rounding.round rng r d in
      Demand.equal (Rounding.demand_of a) d)

module Pool = Sso_engine.Pool

let with_pool jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Source-batched oracles: the MWU oracle solvers answer every target of a
   source from one single-source pass.  On each solver's own instance the
   batched kernel must return exactly the per-pair kernel's path — under
   unit weights (ties everywhere) and under weights grown from the solved
   routing's edge loads, as the game's are — and the routing must be
   byte-identical at pools of 1 and 4 jobs. *)

let exact_same_routing label r1 r2 =
  let dump r =
    List.map
      (fun (s, t) ->
        ( (s, t),
          List.map
            (fun (w, (p : Path.t)) -> (w, p.Path.src, p.Path.dst, p.Path.edges))
            (Routing.distribution r s t) ))
      (Routing.pairs r)
  in
  Alcotest.(check bool) label true (dump r1 = dump r2)

let batched_demand () =
  (* Several targets per source so batching actually groups, plus one
     lone pair. *)
  Demand.of_list
    [ (0, 5, 1.0); (0, 7, 2.0); (0, 11, 1.0); (2, 9, 1.5); (2, 13, 1.0); (4, 10, 0.5) ]

let check_batched_matches_per_pair ~batched ~per_pair g r d =
  let loads = Routing.edge_loads g r d in
  let weights = [ ("unit", fun _ -> 1.0); ("loads", fun e -> exp loads.(e)) ] in
  let pairs = Demand.fold (fun s t _ acc -> (s, t) :: acc) d [] in
  let sources = List.sort_uniq compare (List.map fst pairs) in
  List.iter
    (fun (wname, weight) ->
      List.iter
        (fun s ->
          let ts =
            Array.of_list
              (List.sort compare
                 (List.filter_map (fun (s', t) -> if s' = s then Some t else None) pairs))
          in
          Array.iteri
            (fun i p ->
              Alcotest.(check bool)
                (Printf.sprintf "%s weights %d -> %d" wname s ts.(i))
                true
                (Option.equal Path.equal p (per_pair ~weight s ts.(i))))
            (batched ~weight s ts))
        sources)
    weights

let test_mwu_unrestricted_batched_matches_per_pair () =
  let g = Gen.random_regular (Rng.create 21) 16 4 in
  let d = batched_demand () in
  let solve pool = fst (Min_congestion.mwu_unrestricted ~pool ~iters:60 g d) in
  with_pool 1 @@ fun p1 ->
  with_pool 4 @@ fun p4 ->
  let reference = solve p1 in
  exact_same_routing "jobs 4" reference (solve p4);
  check_batched_matches_per_pair g reference d
    ~batched:(fun ~weight s ts -> Shortest.dijkstra_paths g ~weight s ts)
    ~per_pair:(fun ~weight s t -> Shortest.dijkstra_path g ~weight s t)

let test_mwu_hop_limited_batched_matches_per_pair () =
  let g = Gen.random_regular (Rng.create 22) 16 4 in
  let d = batched_demand () in
  let max_hops = 6 in
  let solve pool =
    match Min_congestion.mwu_hop_limited ~pool ~iters:30 ~max_hops g d with
    | Some (r, _) -> r
    | None -> Alcotest.fail "hop-limited solve should be feasible"
  in
  with_pool 1 @@ fun p1 ->
  with_pool 4 @@ fun p4 ->
  let reference = solve p1 in
  exact_same_routing "jobs 4" reference (solve p4);
  check_batched_matches_per_pair g reference d
    ~batched:(fun ~weight s ts -> Shortest.hop_limited_paths g ~weight ~max_hops s ts)
    ~per_pair:(fun ~weight s t -> Shortest.hop_limited_path g ~weight ~max_hops s t)

(* Stage-4 MWU/GK golden pins.  The instances live on a k=8 fat-tree
   (m = 256) whose candidates touch only a few dozen edges, so a change
   to the solvers' edge space — the MWU step size η, the max-normalized
   adversary weights, warm-path edges outside the candidate set — moves a
   congestion bit, a routing digest or a telemetry value here. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module Slice_candidates = Sso_flow.Slice_candidates

(* Edge switch [e] of pod [p] in [Gen.fat_tree k]. *)
let fat_switch k (p, e) = (k * k / 4) + (p * k) + (k / 2) + e

(* Edge switch [src] → aggregation switch [a] of its pod → core
   [a·k/2 + c] → aggregation switch [a] of [dst]'s pod → edge switch
   [dst]. *)
let fat_path g k src dst (a, c) =
  let half = k / 2 in
  let agg (p, _) = (half * half) + (p * k) + a in
  Path.of_vertices g [ fat_switch k src; agg src; (a * half) + c; agg dst; fat_switch k dst ]

(* [(src, dst, amount, candidate routes)], routes as [(a, c)]. *)
let fat_pin_pairs =
  [
    ((0, 0), (3, 1), 2.0, [ (0, 0); (1, 2); (2, 1) ]);
    ((0, 0), (5, 2), 1.0, [ (0, 0); (1, 2); (3, 3) ]);
    ((0, 1), (3, 1), 1.5, [ (0, 1); (1, 2); (2, 1) ]);
    ((4, 1), (0, 0), 1.0, [ (0, 0); (2, 1); (3, 3) ]);
    ((5, 2), (0, 3), 3.0, [ (1, 0); (3, 1) ]);
    ((6, 0), (2, 2), 0.5, [ (0, 3); (2, 0) ]);
  ]

let fat_pair k (src, dst, _, _) = (fat_switch k src, fat_switch k dst)

let fat_candidates g k entries =
  candidates g
    (List.map
       (fun ((src, dst, _, routes) as entry) ->
         (fat_pair k entry, List.map (fat_path g k src dst) routes))
       entries)

let fat_demand k entries =
  Demand.of_list
    (List.map
       (fun ((_, _, amount, _) as entry) ->
         let s, t = fat_pair k entry in
         (s, t, amount))
       entries)

(* Run [f] with tracing on; return its result and the float bits of the
   last [mwu.round] event's potential, average and round congestion. *)
let last_round f =
  Obs.clear_trace ();
  Obs.set_tracing true;
  let result = Fun.protect ~finally:(fun () -> Obs.set_tracing false) f in
  let last =
    List.fold_left
      (fun acc (e : Trace.event) -> if e.Trace.name = "mwu.round" then Some e else acc)
      None (Obs.events ())
  in
  Obs.clear_trace ();
  let bits key =
    match Option.map (fun (e : Trace.event) -> List.assoc_opt key e.Trace.attrs) last with
    | Some (Some (Trace.Float f)) -> Int64.bits_of_float f
    | _ -> Alcotest.failf "no mwu.round event with a float %s" key
  in
  (result, (bits "potential", bits "avg_congestion", bits "round_congestion"))

(* (a) a cold MWU over four pairs; (b) an index over all six pairs for a
   three-pair demand; (c) a warm start whose paths include overflow paths
   through cores no candidate uses; (d) Garg–Könemann on (a). *)
let stage4_pin_runs () =
  let k = 8 in
  let g = Gen.fat_tree k in
  let four = List.filteri (fun i _ -> i < 4) fat_pin_pairs in
  let sc_a = fat_candidates g k four and d_a = fat_demand k four in
  let sc_b = fat_candidates g k fat_pin_pairs in
  let d_b = fat_demand k (List.filteri (fun i _ -> i mod 2 = 1) fat_pin_pairs) in
  let sc_c =
    fat_candidates g k
      (List.map
         (fun (src, dst, x, routes) -> (src, dst, x, List.filteri (fun i _ -> i < 2) routes))
         four)
  in
  (* A pair's warm distribution: its three routes at weight 1, plus
     [extra] weighted routes. *)
  let warm_dist ((src, dst, _, routes) as entry) extra =
    ( fat_pair k entry,
      List.map (fun (w, r) -> (w, fat_path g k src dst r)) extra
      @ List.map (fun r -> (1.0, fat_path g k src dst r)) routes )
  in
  let warm =
    Routing.make
      [
        warm_dist (List.nth four 0) [ (6.0, (3, 2)); (1.0, (1, 3)) ];
        warm_dist (List.nth four 1) [];
      ]
  in
  let touched = Hashtbl.create 64 in
  for c = 0 to Slice_candidates.ncands sc_c - 1 do
    Slice_candidates.iter_edges sc_c c (fun e -> Hashtbl.replace touched e ())
  done;
  let src, dst, _, _ = List.hd four in
  Alcotest.(check bool) "candidates touch few edges" true
    (Hashtbl.length touched * 4 < Graph.m g);
  Alcotest.(check bool) "an overflow path leaves the candidates' edges" true
    (Array.exists (fun e -> not (Hashtbl.mem touched e)) (fat_path g k src dst (3, 2)).Path.edges);
  let a, a_round = last_round (fun () -> Min_congestion.mwu_on_slices ~iters:120 g sc_a d_a) in
  let b = Min_congestion.mwu_on_slices ~iters:120 g sc_b d_b in
  let c, c_round =
    last_round (fun () ->
        Min_congestion.mwu_on_slices_warm ~iters:40 ~warm ~warm_weight:200 g sc_c d_a)
  in
  let d = Concurrent_flow.on_slices ~epsilon:0.1 g sc_a d_a in
  ( [ ("cold", a); ("index wider than demand", b); ("warm overflow", c); ("gk", d) ],
    [ ("cold", a_round); ("warm overflow", c_round) ] )

let stage4_golden =
  [
    ("cold", (4608233258713070524L, -8556871333054261892L));
    ("index wider than demand", (4602828939160225929L, -346270905968663307L));
    ("warm overflow", (4610822828498808558L, 5900996897321447178L));
    ("gk", (4608014706205486288L, -3617433504488301153L));
  ]

(* (potential, avg_congestion, round_congestion) of the last round. *)
let stage4_round_golden =
  [
    ("cold", (4630404104378646528L, 4608233258713070524L, 4611686018427387904L));
    ("warm overflow", (4635095353990490794L, 4608433418696509212L, 4616752568008179712L));
  ]

let test_stage4_golden_pins () =
  let runs, rounds = stage4_pin_runs () in
  List.iter (fun (name, got) -> check_pin name (List.assoc name stage4_golden) got) runs;
  List.iter
    (fun (name, got) ->
      Alcotest.(check (triple int64 int64 int64))
        (name ^ " last round") (List.assoc name stage4_round_golden) got)
    rounds

(* 32 edge-switch pairs of a k-ary fat-tree, four routes each. *)
let fat32_entries k =
  let half = k / 2 in
  List.init 32 (fun i ->
      let src = (i, i mod half) and dst = ((i + 7) mod k, i * 5 mod half) in
      let routes = List.init 4 (fun j -> ((i + (5 * j)) mod half, 3 * j mod half)) in
      (src, dst, 1.0 +. float_of_int (i mod 3), routes))

(* Per-round allocation of the candidate MWU: the minor words of 200
   rounds minus those of 100, over 100, on a k=32 fat-tree (m = 16,384)
   with 32 pairs of four candidates each.  A round may allocate per pair
   (oracle answers, boxed amounts) but nothing proportional to m. *)
let test_candidate_round_allocation () =
  let k = 32 in
  let g = Gen.fat_tree k in
  let entries = fat32_entries k in
  let sc = fat_candidates g k entries and d = fat_demand k entries in
  let pairs = Demand.support_size d in
  with_pool 1 @@ fun pool ->
  let words iters =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Min_congestion.mwu_on_slices ~pool ~iters g sc d));
    Gc.minor_words () -. before
  in
  ignore (words 100);
  let per_round = (words 200 -. words 100) /. 100.0 in
  let budget = float_of_int ((32 * pairs) + 256) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per round (budget %.0f, m = %d)" per_round budget (Graph.m g))
    true (per_round <= budget)

(* [Routing.congestion] ends every Stage-4 solve.  Summing the loads may
   allocate per path, but the max over the m-sized load array must not
   box a float per edge: on a k=32 fat-tree (m = 16,384) one call stays
   within 16 words per path plus a constant. *)
let test_congestion_allocation () =
  let k = 32 in
  let g = Gen.fat_tree k in
  let entries = fat32_entries k in
  let r =
    Routing.make
      (List.map
         (fun ((src, dst, _, routes) as entry) ->
           (fat_pair k entry, List.map (fun route -> (1.0, fat_path g k src dst route)) routes))
         entries)
  in
  let d = fat_demand k entries in
  let paths =
    List.fold_left
      (fun n (s, t) -> n + List.length (Routing.distribution r s t))
      0 (Routing.pairs r)
  in
  let words () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Routing.congestion g r d));
    Gc.minor_words () -. before
  in
  ignore (words ());
  let used = words () in
  let budget = float_of_int ((16 * paths) + 256) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d paths (budget %.0f, m = %d)" used paths budget (Graph.m g))
    true (used <= budget)

(* Oracle-solver golden pins: the shortest-path and hop-limited MWU
   solvers and Garg–Könemann's unrestricted solver on a random 4-regular
   graph, with several targets per source so the source-grouped oracle
   answers more than one pair per pass.  Each MWU pin holds at pools of
   1 and 4 jobs; the last [mwu.round] attrs pin the game's η and
   normalisation as well as its output. *)

let oracle_pin_runs pool =
  let g = Gen.random_regular (Rng.create 21) 16 4 in
  (* Several targets per source, plus one lone pair. *)
  let d =
    Demand.of_list
      [ (0, 5, 1.0); (0, 7, 2.0); (0, 11, 1.0); (2, 9, 1.5); (2, 13, 1.0); (4, 10, 0.5) ]
  in
  let masked = fst (Graph.adj g 0).(0) in
  let feasible = function
    | Some result -> result
    | None -> Alcotest.fail "oracle pin instance should be feasible"
  in
  let unrestricted, u_round =
    last_round (fun () -> Min_congestion.mwu_unrestricted ~pool ~iters:60 g d)
  in
  let avoiding, a_round =
    last_round (fun () ->
        feasible
          (Min_congestion.mwu_unrestricted_avoiding ~pool ~iters:60
             ~avoid:(fun e -> e = masked) g d))
  in
  let hop, h_round =
    last_round (fun () ->
        feasible (Min_congestion.mwu_hop_limited ~pool ~iters:30 ~max_hops:6 g d))
  in
  ( [
      ("unrestricted", unrestricted);
      ("avoiding", avoiding);
      ("hop limited", hop);
      ("gk unrestricted", Concurrent_flow.unrestricted ~epsilon:0.1 g d);
    ],
    [ ("unrestricted", u_round); ("avoiding", a_round); ("hop limited", h_round) ] )

let oracle_golden =
  [
    ("unrestricted", (4607407598781385933L, -3148242464304813857L));
    ("avoiding", (4608758678669597081L, -619320916811029277L));
    ("hop limited", (4607557718768964949L, -4335282397779177664L));
    ("gk unrestricted", (4607268521608820510L, -8668217907766723506L));
  ]

(* (potential, avg_congestion, round_congestion) of the last round. *)
let oracle_round_golden =
  [
    ("unrestricted", (4627786387095237428L, 4607407598781385933L, 4616752568008179712L));
    ("avoiding", (4628293042053316606L, 4608758678669597079L, 4617878467915022336L));
    ("hop limited", (4625267186053677056L, 4607557718768964949L, 4616752568008179712L));
  ]

let test_oracle_golden_pins () =
  List.iter
    (fun jobs ->
      with_pool jobs @@ fun pool ->
      let runs, rounds = oracle_pin_runs pool in
      let at name = Printf.sprintf "%s (jobs %d)" name jobs in
      List.iter
        (fun (name, got) -> check_pin (at name) (List.assoc name oracle_golden) got)
        runs;
      List.iter
        (fun (name, got) ->
          Alcotest.(check (triple int64 int64 int64))
            (at name ^ " last round") (List.assoc name oracle_round_golden) got)
        rounds)
    [ 1; 4 ]

let () =
  Alcotest.run "flow"
    [
      ( "routing",
        [
          Alcotest.test_case "normalizes" `Quick test_routing_normalizes;
          Alcotest.test_case "merges duplicates" `Quick test_routing_merges_duplicates;
          Alcotest.test_case "rejects bad input" `Quick test_routing_rejects;
          Alcotest.test_case "congestion" `Quick test_routing_congestion;
          Alcotest.test_case "capacity" `Quick test_routing_respects_capacity;
          Alcotest.test_case "dilation" `Quick test_routing_dilation;
          Alcotest.test_case "integral on" `Quick test_routing_is_integral_on;
          Alcotest.test_case "merge convex (Lemma 5.15)" `Quick test_merge_convex_bound;
          Alcotest.test_case "sample path" `Quick test_sample_path;
        ] );
      ( "lp",
        [
          Alcotest.test_case "splits" `Quick test_lp_splits;
          Alcotest.test_case "single candidate" `Quick test_lp_single_candidate;
          Alcotest.test_case "competing pairs" `Quick test_lp_competing_pairs;
          Alcotest.test_case "missing candidates" `Quick test_lp_missing_candidates;
          Alcotest.test_case "empty demand" `Quick test_lp_empty_demand;
          Alcotest.test_case "unrestricted known value" `Quick test_lp_unrestricted_known_value;
          Alcotest.test_case "golden pins" `Quick test_lp_golden_pins;
        ] );
      ( "mwu",
        [
          Alcotest.test_case "matches lp" `Slow test_mwu_matches_lp;
          Alcotest.test_case "square" `Quick test_mwu_on_square;
          Alcotest.test_case "unrestricted square" `Quick test_mwu_unrestricted_square;
          Alcotest.test_case "unrestricted vs lp" `Slow test_unrestricted_lp_matches_mwu;
          Alcotest.test_case "hop limited direct" `Quick test_hop_limited_forces_direct;
          Alcotest.test_case "hop limited infeasible" `Quick test_hop_limited_infeasible;
          Alcotest.test_case "stage-4 golden pins" `Quick test_stage4_golden_pins;
          Alcotest.test_case "oracle golden pins" `Quick test_oracle_golden_pins;
          Alcotest.test_case "unrestricted batched = per-pair" `Quick
            test_mwu_unrestricted_batched_matches_per_pair;
          Alcotest.test_case "hop limited batched = per-pair" `Quick
            test_mwu_hop_limited_batched_matches_per_pair;
          Alcotest.test_case "candidate round allocation" `Quick test_candidate_round_allocation;
          Alcotest.test_case "congestion allocation" `Quick test_congestion_allocation;
          Alcotest.test_case "lower bound sound" `Slow test_lower_bound_sound;
          Alcotest.test_case "lower bound bottleneck" `Quick test_lower_bound_tight_on_bottleneck;
        ] );
      ( "routing extra",
        [
          Alcotest.test_case "restrict" `Quick test_routing_restrict;
          Alcotest.test_case "covers" `Quick test_routing_covers;
          Alcotest.test_case "support sparsity" `Quick test_routing_support_sparsity;
          Alcotest.test_case "edge congestion" `Quick test_routing_edge_congestion;
          Alcotest.test_case "volume lower bound" `Quick test_lower_bound_volume_on_long_path;
          Alcotest.test_case "gk epsilon tradeoff" `Quick test_gk_epsilon_tradeoff;
          Alcotest.test_case "gk rejects bad epsilon" `Quick test_gk_rejects_bad_epsilon;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "preserves good solution" `Quick
            test_warm_start_preserves_good_solution;
          Alcotest.test_case "recovers from bad seed" `Quick
            test_warm_start_recovers_from_bad_seed;
          Alcotest.test_case "handles new pairs" `Quick test_warm_start_handles_new_pairs;
          Alcotest.test_case "rejects bad weight" `Quick test_warm_start_rejects_bad_weight;
        ] );
      ( "garg-konemann",
        [
          Alcotest.test_case "splits square" `Quick test_gk_splits_square;
          Alcotest.test_case "matches lp" `Slow test_gk_matches_lp;
          Alcotest.test_case "unrestricted vs lp" `Slow test_gk_unrestricted_matches_lp;
          Alcotest.test_case "three engines agree" `Slow test_gk_three_engines_agree;
          Alcotest.test_case "empty demand" `Quick test_gk_empty_demand;
          Alcotest.test_case "missing candidates" `Quick test_gk_missing_candidates;
          Alcotest.test_case "respects capacities" `Quick test_gk_respects_capacities;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "integral" `Quick test_round_is_integral;
          Alcotest.test_case "rejects fractional" `Quick test_round_rejects_fractional_demand;
          Alcotest.test_case "Lemma 6.3 bound" `Slow test_rounding_lemma_bound;
          Alcotest.test_case "local search improves" `Quick test_local_search_improves;
          Alcotest.test_case "local search preserves demand" `Quick
            test_local_search_preserves_demand;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_round_preserves_counts ] );
    ]
