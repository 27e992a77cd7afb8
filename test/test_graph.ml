(* Tests for the graph substrate: construction, shortest paths, k-shortest
   paths, max-flow/min-cut, matching, generators, serialization. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Yen = Sso_graph.Yen
module Maxflow = Sso_graph.Maxflow
module Matching = Sso_graph.Matching
module Gen = Sso_graph.Gen
module Gio = Sso_graph.Gio
module Arena = Sso_graph.Arena

let triangle () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 0 2);
  Graph.Builder.build b

(* Graph basics *)

let test_builder_basics () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (Graph.endpoints g 0);
  Alcotest.(check int) "other end" 1 (Graph.other_end g 0 0);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_builder_rejects_self_loop () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.Builder.add_edge: self-loop")
    (fun () -> ignore (Graph.Builder.add_edge b 1 1))

let test_builder_rejects_bad_cap () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Graph.Builder.add_edge: capacity must be positive") (fun () ->
      ignore (Graph.Builder.add_edge ~cap:0.0 b 0 1))

let test_parallel_edges () =
  let b = Graph.Builder.create 2 in
  let e1 = Graph.Builder.add_edge b 0 1 in
  let e2 = Graph.Builder.add_edge b 0 1 in
  let g = Graph.Builder.build b in
  Alcotest.(check bool) "distinct ids" true (e1 <> e2);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check int) "degree counts multiplicity" 2 (Graph.degree g 0)

let test_disconnected () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected (Graph.Builder.build b))

let test_total_capacity () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:3.5 b 1 2);
  Alcotest.(check (float 1e-9)) "sum" 5.5 (Graph.total_capacity (Graph.Builder.build b))

(* Paths *)

let test_path_of_vertices () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "hops" 3 (Path.hops p);
  Alcotest.(check (array int)) "vertices" [| 0; 1; 2; 3 |] (Path.vertices g p);
  Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_path_trivial () =
  let g = triangle () in
  let p = Path.trivial 1 in
  Alcotest.(check int) "hops" 0 (Path.hops p);
  Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_path_of_edges_validates () =
  let g = Gen.path_graph 4 in
  Alcotest.check_raises "broken walk"
    (Invalid_argument "Path.of_edges: edges do not form a walk") (fun () ->
      ignore (Path.of_edges g ~src:0 ~dst:3 [| 0; 2 |]))

let test_path_simplify () =
  let g = Gen.cycle 4 in
  (* Walk 0-1-2-1-0-3: should simplify to 0-3. *)
  let e01 = 0 and e12 = 1 and e30 = 3 in
  let walk = Path.of_edges g ~src:0 ~dst:3 [| e01; e12; e12; e01; e30 |] in
  let simple = Path.simplify g walk in
  Alcotest.(check bool) "simple" true (Path.is_simple g simple);
  Alcotest.(check int) "direct" 1 (Path.hops simple);
  Alcotest.(check (array int)) "vertices" [| 0; 3 |] (Path.vertices g simple)

let test_path_simplify_identity () =
  let g = Gen.grid 3 3 in
  let p = Path.of_vertices g [ 0; 1; 2; 5; 8 ] in
  Alcotest.(check bool) "unchanged" true (Path.equal p (Path.simplify g p))

let test_path_concat () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 2; 3; 4 ] in
  let r = Path.concat g p q in
  Alcotest.(check int) "hops" 4 (Path.hops r);
  Alcotest.(check bool) "simple" true (Path.is_simple g r)

let test_path_concat_cancels () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  let q = Path.of_vertices g [ 3; 2; 1 ] in
  let r = Path.concat g p q in
  Alcotest.(check (array int)) "back-tracking removed" [| 0; 1 |] (Path.vertices g r)

let test_path_reverse () =
  let g = Gen.path_graph 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let r = Path.reverse p in
  Alcotest.(check (array int)) "reversed" [| 2; 1; 0 |] (Path.vertices g r)

let test_path_weight () =
  let g = Gen.path_graph 4 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "weight" 6.0
    (Path.weight (fun e -> float_of_int (e + 1)) p)

(* Shortest paths *)

let test_bfs_dist () =
  let g = Gen.grid 3 3 in
  let dist = Shortest.bfs_dist g 0 in
  Alcotest.(check int) "corner to corner" 4 dist.(8);
  Alcotest.(check int) "self" 0 dist.(0)

let test_bfs_path () =
  let g = Gen.grid 3 3 in
  match Shortest.bfs_path g 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "min hops" 4 (Path.hops p);
      Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_dijkstra_weighted () =
  (* Square 0-1-3 and 0-2-3; make the 0-1 edge heavy. *)
  let b = Graph.Builder.create 4 in
  let e01 = Graph.Builder.add_edge b 0 1 in
  ignore (Graph.Builder.add_edge b 1 3);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  let weight e = if e = e01 then 10.0 else 1.0 in
  match Shortest.dijkstra_path g ~weight 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check (array int)) "avoids heavy edge" [| 0; 2; 3 |] (Path.vertices g p)

let test_dijkstra_dist_matches_bfs () =
  let rng = Rng.create 5 in
  let g = Gen.erdos_renyi rng 40 0.15 in
  let dist, _ = Shortest.dijkstra g ~weight:(fun _ -> 1.0) 0 in
  let hops = Shortest.bfs_dist g 0 in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check (float 1e-9))
      "unit dijkstra = bfs"
      (float_of_int hops.(v))
      dist.(v)
  done

let test_hop_limited_loose () =
  let g = Gen.grid 3 3 in
  (* With enough hops the hop-limited path matches the shortest path. *)
  match Shortest.hop_limited_path g ~weight:(fun _ -> 1.0) ~max_hops:10 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "hops" 4 (Path.hops p)

let test_hop_limited_tight () =
  (* Two routes 0→3: cheap long (3 hops, weight 0.3) vs pricey short
     (1 hop, weight 5).  Budget 2 forces the direct edge. *)
  let b = Graph.Builder.create 4 in
  let direct = Graph.Builder.add_edge b 0 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  let weight e = if e = direct then 5.0 else 0.1 in
  (match Shortest.hop_limited_path g ~weight ~max_hops:2 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "forced direct" 1 (Path.hops p));
  match Shortest.hop_limited_path g ~weight ~max_hops:3 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "relaxed budget takes cheap route" 3 (Path.hops p)

let test_hop_limited_infeasible () =
  let g = Gen.path_graph 5 in
  Alcotest.(check bool)
    "budget too small" true
    (Shortest.hop_limited_path g ~weight:(fun _ -> 1.0) ~max_hops:3 0 4 = None)

let test_diameter () =
  Alcotest.(check int) "path graph" 4 (Shortest.diameter (Gen.path_graph 5));
  Alcotest.(check int) "hypercube" 4 (Shortest.diameter (Gen.hypercube 4))

let test_all_pairs_hops () =
  let g = Gen.cycle 6 in
  let d = Shortest.all_pairs_hops g in
  Alcotest.(check int) "opposite" 3 d.(0).(3);
  Alcotest.(check int) "adjacent" 1 d.(2).(3)

(* Truncated / multi-source Dijkstra balls *)

let test_ball_matches_full_dijkstra () =
  (* At every radius, the ball settles exactly the vertices the full run
     puts within it, with bit-identical distances. *)
  let g = Gen.random_regular (Rng.create 31) 40 4 in
  let wr = Rng.create 32 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.25 +. Rng.float wr) in
  let full, _ = Shortest.dijkstra g ~weight:(fun e -> weights.(e)) 5 in
  let ws = Shortest.Workspace.create () in
  List.iter
    (fun radius ->
      let settled = Hashtbl.create 64 in
      Shortest.dijkstra_ball_into ws g ~weights ~radius ~sources:[| 5 |]
        (fun v d -> Hashtbl.replace settled v d);
      for v = 0 to Graph.n g - 1 do
        match Hashtbl.find_opt settled v with
        | Some d ->
            Alcotest.(check bool) "within radius" true (d <= radius);
            Alcotest.(check (float 0.0)) "distance bit-identical" full.(v) d
        | None -> Alcotest.(check bool) "outside radius" true (full.(v) > radius)
      done)
    [ 0.0; 0.7; 1.9; infinity ]

let test_ball_multi_source () =
  (* Multi-source distances are the pointwise minimum over the sources. *)
  let g = Gen.grid 5 5 in
  let weights = Array.make (Graph.m g) 1.0 in
  let d0, _ = Shortest.dijkstra g ~weight:(fun _ -> 1.0) 0 in
  let d24, _ = Shortest.dijkstra g ~weight:(fun _ -> 1.0) 24 in
  let ws = Shortest.Workspace.create () in
  let settled = Array.make 25 infinity in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity
    ~sources:[| 0; 24 |] (fun v d -> settled.(v) <- d);
  for v = 0 to 24 do
    Alcotest.(check (float 0.0)) "min over sources"
      (Float.min d0.(v) d24.(v))
      settled.(v)
  done

let test_ball_negative_radius_empty () =
  let g = Gen.grid 3 3 in
  let weights = Array.make (Graph.m g) 1.0 in
  let ws = Shortest.Workspace.create () in
  let count = ref 0 in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:(-1.0) ~sources:[| 0 |]
    (fun _ _ -> incr count);
  Alcotest.(check int) "settles nothing" 0 !count

let test_ball_prune_equals_radius () =
  (* Pruning candidates past r under an infinite radius is the same run as
     radius r with no pruning (the prune hook sees tentative distances,
     which for an admitted vertex equal its settled distance). *)
  let g = Gen.random_regular (Rng.create 33) 30 4 in
  let wr = Rng.create 34 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.5 +. Rng.float wr) in
  let ws = Shortest.Workspace.create () in
  let r = 2.0 in
  let a = Hashtbl.create 32 and b = Hashtbl.create 32 in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:r ~sources:[| 3 |]
    (fun v d -> Hashtbl.replace a v d);
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity
    ~prune:(fun _ nd -> nd > r)
    ~sources:[| 3 |]
    (fun v d -> Hashtbl.replace b v d);
  Alcotest.(check int) "same ball size" (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun v d ->
      Alcotest.(check (float 0.0)) "same distance" d (Hashtbl.find b v))
    a

(* Yen's k shortest paths *)

let test_yen_counts_and_order () =
  let g = Gen.grid 3 3 in
  let paths = Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k:6 0 8 in
  Alcotest.(check int) "found 6" 6 (List.length paths);
  let weights = List.map (Path.weight (fun _ -> 1.0)) paths in
  let sorted = List.sort compare weights in
  Alcotest.(check (list (float 1e-9))) "non-decreasing" sorted weights;
  (* The 3x3 grid has exactly 6 monotone shortest paths of 4 hops. *)
  List.iter (fun p -> Alcotest.(check int) "all shortest" 4 (Path.hops p)) paths

let test_yen_distinct_and_simple () =
  let g = Gen.grid 3 4 in
  let paths = Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k:12 0 11 in
  let module PS = Set.Make (Path) in
  Alcotest.(check int) "all distinct" (List.length paths) (PS.cardinal (PS.of_list paths));
  List.iter
    (fun p ->
      Alcotest.(check bool) "simple" true (Path.is_simple g p);
      let vs = Path.vertices g p in
      Alcotest.(check int) "src" 0 vs.(0);
      Alcotest.(check int) "dst" 11 vs.(Array.length vs - 1))
    paths

let test_yen_exhausts () =
  let g = Gen.cycle 5 in
  (* Only two simple paths between any pair on a cycle. *)
  let paths = Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k:10 0 2 in
  Alcotest.(check int) "exactly two" 2 (List.length paths)

let test_yen_trivial () =
  let g = triangle () in
  Alcotest.(check int) "s = t" 1 (List.length (Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k:3 1 1))

(* Max-flow / min-cut *)

let test_cut_path () =
  let g = Gen.path_graph 5 in
  Alcotest.(check int) "path cut" 1 (Maxflow.cut g 0 4)

let test_cut_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "cycle cut" 2 (Maxflow.cut g 0 3)

let test_cut_hypercube () =
  let g = Gen.hypercube 3 in
  Alcotest.(check int) "hypercube cut = degree" 3 (Maxflow.cut g 0 7)

let test_cut_two_cliques () =
  let n = 6 in
  let g = Gen.two_cliques n in
  Alcotest.(check int) "cross-clique cut" n (Maxflow.cut g 0 (n + 1));
  Alcotest.(check int) "same-clique cut" (n - 1 + 1) (Maxflow.cut g 0 1)

let test_cut_parallel_edges () =
  let b = Graph.Builder.create 2 in
  for _ = 1 to 4 do
    ignore (Graph.Builder.add_edge b 0 1)
  done;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "parallel multiplicity" 4 (Maxflow.cut g 0 1)

let test_cut_self () =
  let g = triangle () in
  Alcotest.(check int) "cut(v,v) = 0" 0 (Maxflow.cut g 1 1)

let test_max_flow_capacities () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:1.0 b 1 2);
  ignore (Graph.Builder.add_edge ~cap:0.5 b 0 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (float 1e-6)) "bottleneck respected" 1.5 (Maxflow.max_flow g 0 2)

let test_min_cut_edges_separate () =
  let g = Gen.c_graph 4 3 in
  let s = g.Gen.c_leaves1.(0) and t = g.Gen.c_leaves2.(0) in
  Alcotest.(check int) "leaf pair cut is 1" 1 (Maxflow.cut g.Gen.c_graph s t);
  let cut_edges = Maxflow.min_cut_edges g.Gen.c_graph s t in
  Alcotest.(check int) "one cut edge" 1 (List.length cut_edges)

let test_min_cut_edges_disconnect () =
  let rng = Rng.create 9 in
  let g = Gen.erdos_renyi rng 20 0.3 in
  let cut_edges = Maxflow.min_cut_edges g 0 19 in
  Alcotest.(check int) "cardinality matches cut value" (Maxflow.cut g 0 19)
    (List.length cut_edges);
  (* Removing the cut edges must disconnect 0 from 19. *)
  let removed = List.sort_uniq compare cut_edges in
  let blocked e = List.mem e removed in
  let dist, _ =
    Shortest.dijkstra g ~weight:(fun e -> if blocked e then infinity else 1.0) 0
  in
  Alcotest.(check bool) "disconnected after removal" true (dist.(19) = infinity)

(* Matching *)

let test_matching_perfect () =
  let adj l = [ l; (l + 1) mod 4 ] in
  let pairs = Matching.maximum ~left:4 ~right:4 adj in
  Alcotest.(check int) "perfect" 4 (Array.length pairs);
  let rs = Array.map snd pairs in
  Array.sort compare rs;
  Alcotest.(check (array int)) "right side covered" [| 0; 1; 2; 3 |] rs

let test_matching_partial () =
  (* Three left vertices all pointing at right vertex 0. *)
  let adj _ = [ 0 ] in
  let pairs = Matching.maximum ~left:3 ~right:1 adj in
  Alcotest.(check int) "only one match" 1 (Array.length pairs)

let test_matching_empty () =
  let pairs = Matching.maximum ~left:3 ~right:3 (fun _ -> []) in
  Alcotest.(check int) "no edges" 0 (Array.length pairs)

let prop_matching_valid =
  QCheck.Test.make ~name:"matching is a valid partial matching" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let adjs =
        Array.init size (fun _ ->
            List.filter (fun _ -> Rng.bool rng) (List.init size Fun.id))
      in
      let pairs = Matching.maximum ~left:size ~right:size (fun l -> adjs.(l)) in
      let ls = Array.to_list (Array.map fst pairs) in
      let rs = Array.to_list (Array.map snd pairs) in
      List.length (List.sort_uniq compare ls) = List.length ls
      && List.length (List.sort_uniq compare rs) = List.length rs
      && Array.for_all (fun (l, r) -> List.mem r adjs.(l)) pairs)

(* Generators *)

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "regular" 4 (Graph.max_degree g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_grid () =
  let g = Gen.grid 4 5 in
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check int) "m" 31 (Graph.m g)

let test_gen_torus () =
  let g = Gen.torus 4 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "4-regular" 4 (Graph.max_degree g)

let test_gen_complete () =
  let g = Gen.complete 6 in
  Alcotest.(check int) "m" 15 (Graph.m g)

let test_gen_random_regular () =
  let rng = Rng.create 3 in
  let g = Gen.random_regular rng 24 4 in
  Alcotest.(check int) "n" 24 (Graph.n g);
  Alcotest.(check int) "m" 48 (Graph.m g);
  for v = 0 to 23 do
    Alcotest.(check int) "regular" 4 (Graph.degree g v)
  done;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_two_cliques () =
  let g = Gen.two_cliques 5 in
  Alcotest.(check int) "n" 10 (Graph.n g);
  Alcotest.(check int) "m" ((2 * 10) + 5) (Graph.m g)

let test_gen_c_graph () =
  let { Gen.c_graph = g; c_center1; c_leaves1; c_center2; c_leaves2; c_middles } =
    Gen.c_graph 6 3
  in
  Alcotest.(check int) "n" ((2 * 6) + 2 + 3) (Graph.n g);
  Alcotest.(check int) "m" ((2 * 6) + (2 * 3)) (Graph.m g);
  Alcotest.(check int) "leaves1" 6 (Array.length c_leaves1);
  Alcotest.(check int) "leaves2" 6 (Array.length c_leaves2);
  Alcotest.(check int) "middles" 3 (Array.length c_middles);
  Alcotest.(check int) "center1 degree" (6 + 3) (Graph.degree g c_center1);
  Alcotest.(check int) "center2 degree" (6 + 3) (Graph.degree g c_center2);
  Array.iter
    (fun mid -> Alcotest.(check int) "middle degree" 2 (Graph.degree g mid))
    c_middles;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_g_graph () =
  let { Gen.g_graph = g; g_copies } = Gen.g_graph 16 in
  Alcotest.(check int) "copies = floor log n" 4 (List.length g_copies);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Copy for alpha = 1 has k = floor(sqrt 16) = 4 middles. *)
  let _, view1 = List.hd g_copies in
  Alcotest.(check int) "alpha=1 middles" 4 (Array.length view1.Gen.v_middles)

let test_gen_multi_path () =
  let g = Gen.multi_path [ 1; 3; 3 ] in
  Alcotest.(check int) "n" (2 + 0 + 2 + 2) (Graph.n g);
  Alcotest.(check int) "m" (1 + 3 + 3) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "three disjoint routes" 3 (Maxflow.cut g 0 1)

let test_gen_abilene () =
  let g, cities = Gen.abilene () in
  Alcotest.(check int) "n" 11 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check int) "labels" 11 (Array.length cities);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_fat_tree () =
  let k = 4 in
  let g = Gen.fat_tree k in
  (* k=4: 4 cores + 4 pods x 4 switches = 20 vertices; per pod 4+4 edges. *)
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Rich path diversity between edge switches in different pods. *)
  let edge_sw pod i = 4 + (pod * 4) + 2 + i in
  Alcotest.(check int) "cross-pod cut" 2 (Maxflow.cut g (edge_sw 0 0) (edge_sw 1 0))

let test_gen_butterfly () =
  let g = Gen.butterfly 3 in
  Alcotest.(check int) "n" (4 * 8) (Graph.n g);
  Alcotest.(check int) "m" (3 * 8 * 2) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_de_bruijn () =
  let g = Gen.de_bruijn 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Diameter of the de Bruijn graph is at most d. *)
  Alcotest.(check bool) "small diameter" true (Shortest.diameter g <= 4)

let test_gen_b4 () =
  let g, sites = Gen.b4 () in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" 19 (Graph.m g);
  Alcotest.(check int) "labels" 12 (Array.length sites);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "2-edge-connected" true (Maxflow.cut g 0 11 >= 2)

let test_gen_with_unit_caps () =
  let g, _ = Gen.abilene () in
  let u = Gen.with_unit_caps g in
  Alcotest.(check (float 1e-9)) "all caps one" (float_of_int (Graph.m g))
    (Graph.total_capacity u)

(* Heap *)

module Heap = Sso_graph.Heap

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  let order = List.init 5 (fun _ -> match Heap.pop h with Some (k, _) -> k | None -> nan) in
  Alcotest.(check (list (float 1e-9))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] order;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h);
  Alcotest.(check bool) "pop empty" true (Heap.pop h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h 2.0 2;
  Heap.push h 1.0 1;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "min first" 1 v
  | None -> Alcotest.fail "expected element");
  Heap.push h 0.5 0;
  (match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "new min" 0 v
  | None -> Alcotest.fail "expected element");
  match Heap.pop h with
  | Some (_, v) -> Alcotest.(check int) "remaining" 2 v
  | None -> Alcotest.fail "expected element"

let test_heap_duplicates () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h 1.0 i
  done;
  let seen = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        seen := v :: !seen;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all ten popped" 10 (List.length !seen)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (float_range (-50.0) 50.0))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort compare keys)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  Heap.clear h;
  Alcotest.(check int) "empty after clear" 0 (Heap.size h);
  Heap.push h 3.0 "c";
  match Heap.pop h with
  | Some (k, v) ->
      Alcotest.(check (float 0.0)) "key" 3.0 k;
      Alcotest.(check string) "value" "c" v
  | None -> Alcotest.fail "expected element after reuse"

(* The monomorphic int heap must pop in exactly the same order as the
   polymorphic heap (ties included) — Dijkstra's bit-compatibility across
   the workspace migration rests on this. *)
let prop_heap_int_matches_poly =
  QCheck.Test.make ~name:"Heap.Int pops identically to the polymorphic heap"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 80) (float_range 0.0 4.0))
    (fun keys ->
      (* Coarse keys force plenty of ties, exercising tie-break order. *)
      let keys = List.map (fun k -> Float.round k) keys in
      let hp = Heap.create () in
      let hi = Heap.Int.create () in
      List.iteri
        (fun i k ->
          Heap.push hp k i;
          Heap.Int.push hi k i)
        keys;
      let rec drain acc =
        match (Heap.pop hp, Heap.Int.pop hi) with
        | Some a, Some b -> if a = b then drain ((a, b) :: acc) else false
        | None, None -> true
        | _ -> false
      in
      drain [])

let test_heap_int_clear () =
  let h = Heap.Int.create () in
  Heap.Int.push h 5.0 7;
  Heap.Int.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.Int.is_empty h);
  Heap.Int.push h 2.0 3;
  Alcotest.(check (float 0.0)) "min key" 2.0 (Heap.Int.min_key h);
  Alcotest.(check int) "min value" 3 (Heap.Int.min_value h);
  Heap.Int.remove_min h;
  Alcotest.(check bool) "drained" true (Heap.Int.is_empty h)

(* CSR layer: packed arrays must list each vertex's incidences in exactly
   [Graph.adj] order — traversal-order (and hence output) compatibility of
   every CSR-based kernel depends on it. *)
let prop_csr_matches_adj =
  QCheck.Test.make ~name:"CSR arrays mirror adj order" ~count:100
    QCheck.(pair small_int (int_range 4 40))
    (fun (seed, n) ->
      let rng = Rng.create (1000 + seed) in
      let g = Gen.erdos_renyi rng n 0.3 in
      let off = Graph.csr_offsets g
      and eids = Graph.csr_edge_ids g
      and dsts = Graph.csr_targets g in
      Array.length off = Graph.n g + 1
      && off.(Graph.n g) = 2 * Graph.m g
      && List.for_all
           (fun v ->
             let adj = Graph.adj g v in
             off.(v + 1) - off.(v) = Array.length adj
             && List.for_all
                  (fun i ->
                    let e, w = adj.(i) in
                    eids.(off.(v) + i) = e && dsts.(off.(v) + i) = w)
                  (List.init (Array.length adj) Fun.id))
           (List.init (Graph.n g) Fun.id))

(* The source-grouped kernels behind the MWU oracle solvers: one pass from
   [s] must answer every target with exactly the path the per-pair kernel
   returns — same tie-breaks, same [None]s.  Small integer weights make
   ties common; the graphs may be disconnected. *)
let prop_batched_paths_match_per_pair =
  QCheck.Test.make ~name:"source-grouped shortest paths match per-pair calls" ~count:100
    QCheck.(triple small_int (int_range 2 24) (int_range 1 6))
    (fun (seed, n, max_hops) ->
      let rng = Rng.create (2000 + seed) in
      let g = Gen.erdos_renyi rng n 0.25 in
      let w = Array.init (Graph.m g) (fun _ -> float_of_int (1 + Rng.int rng 3)) in
      let weight e = w.(e) in
      let s = Rng.int rng n in
      let ts = Array.init n (fun i -> n - 1 - i) in
      let same a b = Option.equal Path.equal a b in
      let batched = Shortest.dijkstra_paths g ~weight s ts in
      let hop = Shortest.hop_limited_paths g ~weight ~max_hops s ts in
      Array.for_all Fun.id
        (Array.mapi
           (fun i t ->
             same batched.(i) (Shortest.dijkstra_path g ~weight s t)
             && same hop.(i) (Shortest.hop_limited_path g ~weight ~max_hops s t))
           ts))

let test_iter_adj_matches_adj () =
  let rng = Rng.create 77 in
  let g = Gen.erdos_renyi rng 12 0.4 in
  for v = 0 to Graph.n g - 1 do
    let seen = ref [] in
    Graph.iter_adj g v (fun e w -> seen := (e, w) :: !seen);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "vertex %d" v)
      (Array.to_list (Graph.adj g v))
      (List.rev !seen)
  done

let test_dijkstra_rejects_negative_weight () =
  let g = Gen.grid 3 3 in
  (* The negative edge sits away from the source component's frontier —
     validation is per-call over all edges, not per visit. *)
  let weight e = if e = Graph.m g - 1 then -1.0 else 1.0 in
  Alcotest.check_raises "dijkstra raises"
    (Invalid_argument "Shortest.dijkstra: negative edge weight") (fun () ->
      ignore (Shortest.dijkstra g ~weight 0));
  Alcotest.check_raises "dijkstra_path raises"
    (Invalid_argument "Shortest.dijkstra: negative edge weight") (fun () ->
      ignore (Shortest.dijkstra_path g ~weight 0 1));
  Alcotest.check_raises "hop_limited raises"
    (Invalid_argument "Shortest.hop_limited_path: negative edge weight")
    (fun () -> ignore (Shortest.hop_limited_path g ~weight ~max_hops:4 0 1))

(* Extra shortest-path coverage *)

let test_dijkstra_infinite_weight_masks () =
  let g = Gen.cycle 4 in
  (* Mask edge 0 (between vertices 0 and 1): the path must go the other
     way around. *)
  let weight e = if e = 0 then infinity else 1.0 in
  match Shortest.dijkstra_path g ~weight 0 1 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "went the long way" 3 (Path.hops p)

let test_hop_limited_equals_dijkstra_when_loose () =
  let rng = Rng.create 55 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 15 0.3 in
    let weight e = 1.0 +. (0.1 *. float_of_int (e mod 7)) in
    let budget = Graph.n g in
    for t = 1 to Graph.n g - 1 do
      let d1 =
        match Shortest.dijkstra_path g ~weight 0 t with
        | Some p -> Path.weight weight p
        | None -> infinity
      in
      let d2 =
        match Shortest.hop_limited_path g ~weight ~max_hops:budget 0 t with
        | Some p -> Path.weight weight p
        | None -> infinity
      in
      Alcotest.(check (float 1e-9)) "same optimal weight" d1 d2
    done
  done

let test_eccentricity_bounds_diameter () =
  let g = Gen.grid 3 4 in
  let diameter = Shortest.diameter g in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check bool) "ecc <= diam" true (Shortest.eccentricity g v <= diameter)
  done;
  Alcotest.(check bool) "diam achieved" true
    (List.exists
       (fun v -> Shortest.eccentricity g v = diameter)
       (List.init (Graph.n g) Fun.id))

(* Extra max-flow coverage *)

let test_max_flow_symmetric () =
  let rng = Rng.create 77 in
  let g = Gen.erdos_renyi rng 12 0.35 in
  for _ = 1 to 10 do
    let s = Rng.int rng 12 and t = Rng.int rng 12 in
    Alcotest.(check (float 1e-6)) "flow(s,t) = flow(t,s)" (Maxflow.max_flow g s t)
      (Maxflow.max_flow g t s)
  done

let test_max_flow_capacitated_triangle () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:5.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:2.0 b 1 2);
  ignore (Graph.Builder.add_edge ~cap:4.0 b 0 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (float 1e-6)) "0->2: direct 4 + via-1 min(5,2)" 6.0
    (Maxflow.max_flow g 0 2)

let test_fat_tree_cross_pod_diversity () =
  let g = Gen.fat_tree 4 in
  (* Edge switches in pods 0 and 1. *)
  let e0 = 4 + 2 and e1 = 4 + 4 + 2 in
  let paths = Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k:4 e0 e1 in
  Alcotest.(check int) "four equal-cost cross-pod routes" 4 (List.length paths);
  List.iter (fun p -> Alcotest.(check int) "all 4-hop" 4 (Path.hops p)) paths

module Tree = Sso_graph.Tree

let count_tree_edges t = List.length (Tree.edges t)

let test_bfs_tree_structure () =
  let g = Gen.grid 3 3 in
  let t = Tree.bfs_tree g 0 in
  Alcotest.(check int) "n-1 edges" 8 (count_tree_edges t);
  Alcotest.(check int) "root depth" 0 (Tree.depth g t 0);
  Alcotest.(check int) "corner depth = bfs dist" 4 (Tree.depth g t 8)

let test_bfs_tree_disconnected () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.bfs_tree: graph is disconnected") (fun () ->
      ignore (Tree.bfs_tree g 0))

let test_wilson_is_spanning_tree () =
  let rng = Rng.create 3 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 20 0.25 in
    let t = Tree.wilson rng g in
    Alcotest.(check int) "n-1 edges" (Graph.n g - 1) (count_tree_edges t);
    (* Every vertex reaches the root: depth terminates and paths exist. *)
    for v = 0 to Graph.n g - 1 do
      Alcotest.(check bool) "depth finite" true (Tree.depth g t v < Graph.n g)
    done
  done

let test_wilson_uniformity_on_triangle () =
  (* A triangle has 3 spanning trees, each omitting one edge; Wilson must
     hit each about a third of the time. *)
  let g = triangle () in
  let rng = Rng.create 7 in
  let counts = Array.make 3 0 in
  let trials = 3000 in
  for _ = 1 to trials do
    let t = Tree.wilson rng g in
    let used = Tree.edges t in
    for e = 0 to 2 do
      if not (List.mem e used) then counts.(e) <- counts.(e) + 1
    done
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "near uniform" true (Float.abs (frac -. (1.0 /. 3.0)) < 0.05))
    counts

let test_tree_path () =
  let g = Gen.grid 3 3 in
  let t = Tree.bfs_tree g 0 in
  let p = Tree.path g t 6 2 in
  Alcotest.(check bool) "simple" true (Path.is_simple g p);
  let vs = Path.vertices g p in
  Alcotest.(check int) "src" 6 vs.(0);
  Alcotest.(check int) "dst" 2 vs.(Array.length vs - 1);
  Alcotest.(check int) "self" 0 (Path.hops (Tree.path g t 4 4))

let prop_tree_path_valid =
  QCheck.Test.make ~name:"tree paths are valid simple paths" ~count:40
    QCheck.(triple small_int (int_range 0 19) (int_range 0 19))
    (fun (seed, s, t) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 20 0.25 in
      let tree = Tree.wilson rng g in
      let p = Tree.path g tree s t in
      Path.is_simple g p
      && p.Path.src = s && p.Path.dst = t)

(* Bridges *)

module Bridges = Sso_graph.Bridges

let test_bridges_path () =
  let g = Gen.path_graph 5 in
  Alcotest.(check (list int)) "every edge" [ 0; 1; 2; 3 ] (Bridges.find g)

let test_bridges_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check (list int)) "none" [] (Bridges.find g)

let test_bridges_parallel_edges () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (list int)) "only the single edge" [ 2 ] (Bridges.find g);
  Alcotest.(check bool) "is_bridge" true (Bridges.is_bridge g 2);
  Alcotest.(check bool) "parallel not bridge" false (Bridges.is_bridge g 0)

let test_bridges_c_graph () =
  (* In C(n,k) with k >= 2 the 2n star edges are bridges; the 2k middle
     edges are not. *)
  let n = 5 and k = 3 in
  let c = Gen.c_graph n k in
  Alcotest.(check int) "count" (2 * n) (Bridges.count c.Gen.c_graph)

let test_bridges_barbell () =
  (* Two triangles joined by one edge: exactly that edge is a bridge. *)
  let b = Graph.Builder.create 6 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 3 4);
  ignore (Graph.Builder.add_edge b 4 5);
  ignore (Graph.Builder.add_edge b 3 5);
  let bridge = Graph.Builder.add_edge b 2 3 in
  let g = Graph.Builder.build b in
  Alcotest.(check (list int)) "the connector" [ bridge ] (Bridges.find g)

let prop_bridges_match_cut_of_one =
  QCheck.Test.make ~name:"an edge is a bridge iff removing it disconnects its endpoints"
    ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 12 0.22 in
      let bridges = Bridges.find g in
      List.for_all
        (fun e ->
          let u, v = Graph.endpoints g e in
          let blocked e' = e' = e in
          let dist, _ =
            Shortest.dijkstra g ~weight:(fun e' -> if blocked e' then infinity else 1.0) u
          in
          let disconnected = dist.(v) = infinity in
          disconnected = List.mem e bridges)
        (List.init (Graph.m g) Fun.id))

(* Serialization *)

let test_gio_roundtrip () =
  let g = Gen.grid 3 3 in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check int) "n" (Graph.n g) (Graph.n g');
  Alcotest.(check int) "m" (Graph.m g) (Graph.m g');
  Graph.fold_edges
    (fun id u v cap () ->
      let u', v' = Graph.endpoints g' id in
      Alcotest.(check (pair int int)) "endpoints" (u, v) (u', v');
      Alcotest.(check (float 1e-9)) "cap" cap (Graph.cap g' id))
    g ()

let test_gio_caps_roundtrip () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.5 b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  let g = Graph.Builder.build b in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check (float 1e-9)) "cap preserved" 2.5 (Graph.cap g' 0)

let test_gio_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Gio.of_string "hello world");
       false
     with Failure _ -> true)

let test_gio_comments () =
  let g = Gio.of_string "# a comment\nn 2\n0 1\n" in
  Alcotest.(check int) "m" 1 (Graph.m g)

let prop_gio_roundtrip =
  QCheck.Test.make
    ~name:"Gio round-trips random graphs (edges, caps, adjacency)" ~count:50
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.3 in
      let g' = Gio.of_string (Gio.to_string g) in
      (* The edge multiset (with per-edge ids, endpoints, and capacities)
         pins down multiplicities and the full adjacency structure. *)
      let per_edge =
        List.for_all
          (fun e ->
            Graph.endpoints g e = Graph.endpoints g' e
            && Graph.cap g e = Graph.cap g' e)
          (List.init (Graph.m g) Fun.id)
      in
      let adjacency =
        List.for_all
          (fun v ->
            let sorted h =
              List.sort compare (Array.to_list (Graph.adj h v))
            in
            sorted g = sorted g')
          (List.init (Graph.n g) Fun.id)
      in
      Graph.n g = Graph.n g' && Graph.m g = Graph.m g' && per_edge && adjacency)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances satisfy the triangle inequality" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 25 0.25 in
      let d = Shortest.all_pairs_hops g in
      let n = Graph.n g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if d.(a).(b) <> max_int && d.(b).(c) <> max_int then
              if d.(a).(c) > d.(a).(b) + d.(b).(c) then ok := false
          done
        done
      done;
      !ok)

let prop_cut_symmetric =
  QCheck.Test.make ~name:"min cut is symmetric" ~count:50
    QCheck.(triple small_int (int_range 0 14) (int_range 0 14))
    (fun (seed, s, t) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 15 0.3 in
      Maxflow.cut g s t = Maxflow.cut g t s)

let prop_cut_bounded_by_degree =
  QCheck.Test.make ~name:"min cut at most min endpoint degree" ~count:50
    QCheck.(triple small_int (int_range 0 14) (int_range 0 14))
    (fun (seed, s, t) ->
      QCheck.assume (s <> t);
      let rng = Rng.create (seed + 1000) in
      let g = Gen.erdos_renyi rng 15 0.3 in
      Maxflow.cut g s t <= min (Graph.degree g s) (Graph.degree g t))

let prop_yen_sorted =
  QCheck.Test.make ~name:"yen output is sorted and simple" ~count:30
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 15 0.3 in
      let paths = Yen.k_shortest g ~weight:(fun _ -> 1.0) ~k 0 (Graph.n g - 1) in
      let ws = List.map (Path.weight (fun _ -> 1.0)) paths in
      ws = List.sort compare ws && List.for_all (Path.is_simple g) paths)

(* Path arena *)

(* A deterministic random walk of [len] hops from [s]: at each step take a
   uniformly random incident edge.  Walks (repeated vertices and edges) are
   exactly what the arena must accept. *)
let random_walk rng g s len =
  let cur = ref s in
  let edges =
    Array.init len (fun _ ->
        let row = Graph.adj g !cur in
        let e, w = row.(Rng.int rng (Array.length row)) in
        cur := w;
        e)
  in
  Path.of_edges g ~src:s ~dst:!cur edges

let test_arena_empty_and_trivial () =
  let g = triangle () in
  let a = Arena.create g in
  Alcotest.(check int) "empty length" 0 (Arena.length a);
  Alcotest.(check int) "empty bytes" 0 (Arena.memory_bytes a);
  let i = Arena.append_path a (Path.trivial 1) in
  Alcotest.(check int) "trivial handle" 0 i;
  Alcotest.(check int) "trivial hops" 0 (Arena.hops a i);
  Alcotest.(check int) "trivial src" 1 (Arena.src a i);
  Alcotest.(check int) "trivial dst" 1 (Arena.dst a i);
  Alcotest.(check (array int)) "trivial edges" [||] (Arena.edges a i);
  Alcotest.(check (array int)) "trivial vertices" [| 1 |] (Arena.vertices a i);
  let visited = ref 0 in
  Arena.iter a i (fun _ -> incr visited);
  Alcotest.(check int) "trivial iter" 0 !visited;
  Alcotest.(check bool) "trivial round-trip" true
    (Path.equal (Path.trivial 1) (Arena.to_path a i))

let test_arena_basics () =
  let g = triangle () in
  let a = Arena.create g in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 0; 2 ] in
  let ip = Arena.append_path a p in
  let iq = Arena.append_path a q in
  Alcotest.(check int) "length" 2 (Arena.length a);
  Alcotest.(check int) "hops p" 2 (Arena.hops a ip);
  Alcotest.(check int) "hops q" 1 (Arena.hops a iq);
  Alcotest.(check (array int)) "edges p" p.Path.edges (Arena.edges a ip);
  Alcotest.(check (array int)) "vertices p" [| 0; 1; 2 |] (Arena.vertices a ip);
  Alcotest.(check bool) "to_path p" true (Path.equal p (Arena.to_path a ip));
  Alcotest.(check bool) "to_path q" true (Path.equal q (Arena.to_path a iq));
  Alcotest.(check bool) "memory" true (Arena.memory_bytes a > 0);
  (* Kernels agree with the boxed path. *)
  let w e = 1.0 +. float_of_int e in
  Alcotest.(check (float 1e-9)) "weight" (Path.weight w p) (Arena.weight a w ip);
  Alcotest.(check int) "fold count" 2 (Arena.fold a ip (fun acc _ -> acc + 1) 0);
  Alcotest.(check bool) "mem_edge hit" true (Arena.mem_edge a ip p.Path.edges.(0));
  Alcotest.(check bool) "for_all" true (Arena.for_all a ip (fun e -> e >= 0));
  Alcotest.(check bool) "exists" false (Arena.exists a ip (fun e -> e > 100));
  (* Canonical candidate order: shorter path first for equal endpoints. *)
  let p02 = Arena.append_path a (Path.of_vertices g [ 0; 1; 2 ]) in
  Alcotest.(check bool) "compare_within_pair" true
    (Arena.compare_within_pair a iq p02 < 0)

let test_arena_rejects_non_walk () =
  let g = Gen.grid 3 3 in
  let a = Arena.create g in
  Alcotest.check_raises "not incident"
    (Invalid_argument "Arena.append_walk: edge not incident to walk vertex") (fun () ->
      ignore (Arena.append_walk a ~src:0 ~dst:8 [| Graph.m g - 1 |]));
  Alcotest.check_raises "wrong dst"
    (Invalid_argument "Arena.append_walk: walk does not end at dst") (fun () ->
      let e0, _ = (Graph.adj g 0).(0) in
      ignore (Arena.append_walk a ~src:0 ~dst:8 [| e0 |]))

let test_arena_merge () =
  let g = Gen.grid 3 3 in
  let rng = Rng.create 5 in
  let builders =
    List.init 3 (fun _ ->
        let b = Arena.create g in
        for _ = 1 to 4 do
          ignore (Arena.append_path b (random_walk rng g (Rng.int rng 9) 5))
        done;
        b)
  in
  let merged = Arena.create g in
  let firsts = List.map (fun b -> Arena.append_all merged b) builders in
  Alcotest.(check (list int)) "merge offsets" [ 0; 4; 8 ] firsts;
  Alcotest.(check int) "merge length" 12 (Arena.length merged);
  List.iteri
    (fun k b ->
      for i = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "merged path %d/%d" k i)
          true
          (Path.equal (Arena.to_path b i) (Arena.to_path merged ((k * 4) + i)))
      done)
    builders;
  (* Arenas are bound to their graph: cross-graph blits are rejected. *)
  let other = Arena.create (Gen.grid 3 3) in
  Alcotest.check_raises "graph mismatch"
    (Invalid_argument "Arena.append_slice: arenas are over different graphs")
    (fun () -> ignore (Arena.append_slice other (List.hd builders) 0))

let test_arena_unpack () =
  let g = Gen.grid 3 3 in
  let rng = Rng.create 6 in
  let a = Arena.create g in
  let paths = List.init 5 (fun i -> random_walk rng g (i mod 9) i) in
  let ids = Array.of_list (List.map (Arena.append_path a) paths) in
  let off, flat = Arena.unpack a ids in
  let off', fedges, fverts = Arena.unpack_with_vertices a ids in
  Alcotest.(check (array int)) "offsets agree" off off';
  Array.iteri
    (fun i id ->
      let h = Arena.hops a id in
      Alcotest.(check int) "unpack width" h (off.(i + 1) - off.(i));
      Alcotest.(check (array int))
        "unpack edges" (Arena.edges a id)
        (Array.sub flat off.(i) h);
      Alcotest.(check (array int))
        "unpack edges'" (Arena.edges a id)
        (Array.sub fedges off.(i) h);
      Alcotest.(check (array int))
        "unpack vertices" (Arena.vertices a id)
        (Array.sub fverts (off.(i) + i) (h + 1));
      (* suffix_edges = the boxed tail. *)
      let from_hop = h / 2 in
      Alcotest.(check (array int))
        "suffix"
        (Array.sub (Arena.edges a id) from_hop (h - from_hop))
        (Arena.suffix_edges a id ~from_hop))
    ids

let prop_arena_path_roundtrip =
  QCheck.Test.make ~name:"arena slice round-trips any walk" ~count:200
    QCheck.(triple small_int (int_range 0 24) (int_range 0 30))
    (fun (seed, s, len) ->
      let rng = Rng.create seed in
      let g = Gen.grid 5 5 in
      let p = random_walk rng g s len in
      let a = Arena.create g in
      let i = Arena.append_path a p in
      let q = Arena.to_path a i in
      let w e = 1.0 +. (float_of_int e *. 0.5) in
      Path.equal p q
      && Arena.hops a i = Array.length p.Path.edges
      && Arena.src a i = p.Path.src
      && Arena.dst a i = p.Path.dst
      && Arena.weight a w i = Path.weight w p
      && Arena.edges a i = p.Path.edges)

let prop_arena_byte_regions_contiguous =
  QCheck.Test.make ~name:"arena byte regions tile the buffer" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let g = Gen.grid 4 4 in
      let a = Arena.create g in
      for _ = 1 to k do
        ignore (Arena.append_path a (random_walk rng g (Rng.int rng 16) (Rng.int rng 10)))
      done;
      let ok = ref true in
      let prev_stop = ref 0 in
      for i = 0 to Arena.length a - 1 do
        let start, stop = Arena.byte_range a i in
        if start <> !prev_stop || stop < start then ok := false;
        prev_stop := stop
      done;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "rejects self-loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "rejects bad cap" `Quick test_builder_rejects_bad_cap;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "total capacity" `Quick test_total_capacity;
        ] );
      ( "path",
        [
          Alcotest.test_case "of_vertices" `Quick test_path_of_vertices;
          Alcotest.test_case "trivial" `Quick test_path_trivial;
          Alcotest.test_case "of_edges validates" `Quick test_path_of_edges_validates;
          Alcotest.test_case "simplify" `Quick test_path_simplify;
          Alcotest.test_case "simplify identity" `Quick test_path_simplify_identity;
          Alcotest.test_case "concat" `Quick test_path_concat;
          Alcotest.test_case "concat cancels" `Quick test_path_concat_cancels;
          Alcotest.test_case "reverse" `Quick test_path_reverse;
          Alcotest.test_case "weight" `Quick test_path_weight;
        ] );
      ( "shortest",
        [
          Alcotest.test_case "bfs dist" `Quick test_bfs_dist;
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra vs bfs" `Quick test_dijkstra_dist_matches_bfs;
          Alcotest.test_case "hop-limited loose" `Quick test_hop_limited_loose;
          Alcotest.test_case "hop-limited tight" `Quick test_hop_limited_tight;
          Alcotest.test_case "hop-limited infeasible" `Quick test_hop_limited_infeasible;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "all pairs hops" `Quick test_all_pairs_hops;
          Alcotest.test_case "ball vs full run" `Quick test_ball_matches_full_dijkstra;
          Alcotest.test_case "ball multi-source" `Quick test_ball_multi_source;
          Alcotest.test_case "ball negative radius" `Quick
            test_ball_negative_radius_empty;
          Alcotest.test_case "ball prune = radius" `Quick
            test_ball_prune_equals_radius;
        ] );
      ( "yen",
        [
          Alcotest.test_case "counts and order" `Quick test_yen_counts_and_order;
          Alcotest.test_case "distinct and simple" `Quick test_yen_distinct_and_simple;
          Alcotest.test_case "exhausts" `Quick test_yen_exhausts;
          Alcotest.test_case "trivial" `Quick test_yen_trivial;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "path" `Quick test_cut_path;
          Alcotest.test_case "cycle" `Quick test_cut_cycle;
          Alcotest.test_case "hypercube" `Quick test_cut_hypercube;
          Alcotest.test_case "two cliques" `Quick test_cut_two_cliques;
          Alcotest.test_case "parallel edges" `Quick test_cut_parallel_edges;
          Alcotest.test_case "self" `Quick test_cut_self;
          Alcotest.test_case "capacities" `Quick test_max_flow_capacities;
          Alcotest.test_case "min cut edges separate" `Quick test_min_cut_edges_separate;
          Alcotest.test_case "min cut edges disconnect" `Quick test_min_cut_edges_disconnect;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "partial" `Quick test_matching_partial;
          Alcotest.test_case "empty" `Quick test_matching_empty;
        ] );
      ( "gen",
        [
          Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "torus" `Quick test_gen_torus;
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "random regular" `Quick test_gen_random_regular;
          Alcotest.test_case "two cliques" `Quick test_gen_two_cliques;
          Alcotest.test_case "c_graph" `Quick test_gen_c_graph;
          Alcotest.test_case "g_graph" `Quick test_gen_g_graph;
          Alcotest.test_case "multi_path" `Quick test_gen_multi_path;
          Alcotest.test_case "abilene" `Quick test_gen_abilene;
          Alcotest.test_case "fat tree" `Quick test_gen_fat_tree;
          Alcotest.test_case "butterfly" `Quick test_gen_butterfly;
          Alcotest.test_case "de bruijn" `Quick test_gen_de_bruijn;
          Alcotest.test_case "b4" `Quick test_gen_b4;
          Alcotest.test_case "unit caps" `Quick test_gen_with_unit_caps;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "int clear" `Quick test_heap_int_clear;
        ] );
      ( "csr",
        [
          Alcotest.test_case "iter_adj matches adj" `Quick test_iter_adj_matches_adj;
          Alcotest.test_case "dijkstra rejects negative weight" `Quick
            test_dijkstra_rejects_negative_weight;
        ] );
      ( "shortest extra",
        [
          Alcotest.test_case "infinite weight masks" `Quick test_dijkstra_infinite_weight_masks;
          Alcotest.test_case "hop-limited = dijkstra when loose" `Quick
            test_hop_limited_equals_dijkstra_when_loose;
          Alcotest.test_case "eccentricity vs diameter" `Quick test_eccentricity_bounds_diameter;
        ] );
      ( "maxflow extra",
        [
          Alcotest.test_case "symmetric" `Quick test_max_flow_symmetric;
          Alcotest.test_case "capacitated triangle" `Quick test_max_flow_capacitated_triangle;
          Alcotest.test_case "fat tree diversity" `Quick test_fat_tree_cross_pod_diversity;
        ] );
      ( "tree",
        [
          Alcotest.test_case "bfs tree" `Quick test_bfs_tree_structure;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_tree_disconnected;
          Alcotest.test_case "wilson spanning" `Quick test_wilson_is_spanning_tree;
          Alcotest.test_case "wilson uniform" `Slow test_wilson_uniformity_on_triangle;
          Alcotest.test_case "tree path" `Quick test_tree_path;
        ] );
      ( "bridges",
        [
          Alcotest.test_case "path" `Quick test_bridges_path;
          Alcotest.test_case "cycle" `Quick test_bridges_cycle;
          Alcotest.test_case "parallel" `Quick test_bridges_parallel_edges;
          Alcotest.test_case "c_graph" `Quick test_bridges_c_graph;
          Alcotest.test_case "barbell" `Quick test_bridges_barbell;
        ] );
      ( "gio",
        [
          Alcotest.test_case "roundtrip" `Quick test_gio_roundtrip;
          Alcotest.test_case "caps roundtrip" `Quick test_gio_caps_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_gio_rejects_garbage;
          Alcotest.test_case "comments" `Quick test_gio_comments;
        ] );
      ( "arena",
        [
          Alcotest.test_case "empty and trivial" `Quick test_arena_empty_and_trivial;
          Alcotest.test_case "basics" `Quick test_arena_basics;
          Alcotest.test_case "rejects non-walk" `Quick test_arena_rejects_non_walk;
          Alcotest.test_case "merge" `Quick test_arena_merge;
          Alcotest.test_case "unpack" `Quick test_arena_unpack;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matching_valid;
            prop_arena_path_roundtrip;
            prop_arena_byte_regions_contiguous;
            prop_gio_roundtrip;
            prop_bfs_triangle_inequality;
            prop_cut_symmetric;
            prop_cut_bounded_by_degree;
            prop_yen_sorted;
            prop_tree_path_valid;
            prop_heap_sorts;
            prop_heap_int_matches_poly;
            prop_csr_matches_adj;
            prop_batched_paths_match_per_pair;
            prop_bridges_match_cut_of_one;
          ] );
    ]
