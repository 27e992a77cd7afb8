(* The repository's end-to-end benchmark.

   The paper's router installs O(log n) sampled paths per pair once and
   then adapts rates to each revealed demand, so its users feel three
   costs: the install (set-up and restart), the per-demand re-solve, and
   the congestion of the routes they get.  One run measures one workload
   in a closed loop — a single caller that waits for each reply — on an
   engine pool of one domain:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   Workloads (all inputs are generated from --seed):
   - fattree-racke: k=64 fat-tree, 2-tree Räcke forest, alpha=4 installed
     for a fixed pair pool and written to a fresh artifact store; each
     demand puts random rates on a subset of the pool (Stage-4 only).
   - hypercube-valiant: d=9 hypercube, Valiant base, alpha=9=log2 n; each
     demand is a random permutation that admits new pairs, is routed,
     rounded and pushed through the packet simulator.
   - wan-churn: 64-node random 4-regular WAN, Räcke base, alpha=4;
     1,000-tick churn streams with edge fail/repair windows, each
     replayed one Serve.step at a time by a fresh service.

   --seconds sets how many demands a run serves: about that many seconds
   of calls on a 2-vCPU Xeon, and the same demands on every commit.
   With --trace 0 the run reports the end-to-end metrics, measured with
   tracing off.  With --trace 1 it runs a fixed amount of the same work
   twice, untraced then traced (program trace events on, and every call
   into a layer timed from here), and reports the per-layer metrics plus
   the ratio of the two passes.  Every returned routing, simulation and
   restart is checked; a failed check is named on stderr and the run
   exits 1.  The last stdout line is the JSON result. *)

module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Rng = Sso_prng.Rng
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Demand = Sso_demand.Demand
module Update = Sso_demand.Update
module Workload = Sso_demand.Workload
module Routing = Sso_flow.Routing
module Rounding = Sso_flow.Rounding
module Racke = Sso_oblivious.Racke
module Frt = Sso_oblivious.Frt
module Valiant = Sso_oblivious.Valiant
module Path_system = Sso_core.Path_system
module Sampler = Sso_core.Sampler
module Semi_oblivious = Sso_core.Semi_oblivious
module Simulator = Sso_sim.Simulator
module Serve = Sso_serve.Serve
module Checkpoint = Sso_serve.Checkpoint
module Store = Sso_artifact.Store
module Codec = Sso_artifact.Codec

let now = Unix.gettimeofday

(* Scratch state (artifact stores, checkpoints) lives here, inside the
   working directory, and is removed when the run ends. *)
let work_dir = "_perfbench"

(* ---- correctness checks ---- *)

exception Check_failed of string * string

let fail_check name fmt =
  Printf.ksprintf (fun detail -> raise (Check_failed (name, detail))) fmt

let close_enough a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs b)

(* Congestion of [r] on [d], recomputed with an edge-load loop of our own
   that shares no code with the Stage-4 engines: every path is walked
   vertex by vertex from its source, every distribution must sum to 1,
   and no weighted path may cross an edge in [dead]. *)
let recompute_congestion ?(dead = [||]) g r d =
  let load = Array.make (Graph.m g) 0.0 in
  Demand.fold
    (fun s t rate () ->
      let dist = Routing.distribution r s t in
      if dist = [] then fail_check "routing.covers" "pair (%d,%d) unrouted" s t;
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 dist in
      if not (close_enough total 1.0) then
        fail_check "routing.normalized" "pair (%d,%d) weights sum to %g" s t
          total;
      List.iter
        (fun (w, (p : Path.t)) ->
          let at =
            Array.fold_left
              (fun at e ->
                if w > 0.0 && Array.mem e dead then
                  fail_check "routing.failed_edge" "pair (%d,%d) uses dead edge %d"
                    s t e;
                let u, v = Graph.endpoints g e in
                load.(e) <- load.(e) +. (rate *. w);
                if u = at then v
                else if v = at then u
                else fail_check "routing.walk" "pair (%d,%d): edge %d not at %d" s t e at)
              s p.edges
          in
          if at <> t then
            fail_check "routing.walk" "pair (%d,%d): path ends at %d" s t at)
        dist)
    d ();
  let worst = ref 0.0 in
  Array.iteri (fun e l -> worst := Float.max !worst (l /. Graph.cap g e)) load;
  !worst

let check_congestion ?dead g r d ~reported =
  let mine = recompute_congestion ?dead g r d in
  if not (close_enough reported mine) then
    fail_check "routing.congestion" "reported %.17g, recomputed %.17g" reported
      mine

let check_delivered (s : Simulator.stats) ~packets =
  if s.delivered <> packets then
    fail_check "sim.delivered" "%d of %d packets delivered" s.delivered packets

let digest s = Codec.hex_of_key (Codec.fnv1a64 s)
let forest_payload forest = Codec.encode_forest (List.map Frt.to_parts forest)

let system_payload ps pairs =
  Codec.encode_path_system_slices (Path_system.arena ps)
    (List.map (fun (s, t) -> ((s, t), Path_system.slice_range ps s t)) pairs)

(* ---- per-layer accounting (traced pass only) ---- *)

type acc = { mutable ns : int; mutable words : float }

(* Keyed by (phase, layer): the driver sets [phase] to "setup",
   "restart" or "op" around each timed region. *)
let layer_table : (string * string, acc) Hashtbl.t = Hashtbl.create 16
let traced = ref false
let phase = ref "setup"

let acc name =
  match Hashtbl.find_opt layer_table (!phase, name) with
  | Some a -> a
  | None ->
      let a = { ns = 0; words = 0.0 } in
      Hashtbl.replace layer_table (!phase, name) a;
      a

(* Time one call into a layer.  Allocation is the calling domain's
   [Gc.minor_words] delta (domain-local on OCaml 5.1; the engine pool
   runs on this one domain, so it covers all of the work). *)
let layer name f =
  if not !traced then f ()
  else begin
    let a = acc name in
    let w0 = Gc.minor_words () and t0 = Obs.now_ns () in
    let finish () =
      a.ns <- a.ns + (Obs.now_ns () - t0);
      a.words <- a.words +. (Gc.minor_words () -. w0)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Layer totals over the traced pass: nanoseconds in one phase, and minor
   words over every phase. *)
let layer_ns ph name =
  match Hashtbl.find_opt layer_table (ph, name) with Some a -> a.ns | None -> 0

let layer_mw names =
  Hashtbl.fold
    (fun (_, l) a acc -> if List.mem l names then acc +. (a.words /. 1e6) else acc)
    layer_table 0.0

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that leaves at least ten samples above it
   (nearest rank), capped at p99; with fewer than twenty samples that
   would fall below the median, and the median is reported instead. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 20 then (median xs, 0.5)
  else
    let q = Float.min 0.99 (1.0 -. (10.0 /. float_of_int n)) in
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    (a.(max 0 (min (n - 1) i)), q)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* ---- scratch directories ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  let dir = Filename.concat work_dir name in
  rm_rf dir;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  dir

(* ---- workloads ---- *)

(* The deployment — the WAN topology and the router's own random choices
   (Räcke trees, alpha-samples) — comes from this fixed generator, like a
   router's configured seed; --seed generates the traffic it is offered
   (pairs, demands, churn streams, fault windows).  With a 2-tree forest
   the install's quality varies several-fold between router seeds, which
   would swamp every quality figure if it moved with the input seed. *)
let router_rng () = Rng.create 0x50b7

(* One served demand (or tick).  [op] stops its own clock before running
   its checks, so it reports the seconds it measured. *)
type outcome = {
  seconds : float;
  ok : bool;  (** false when a call raised or the simulation ran out of budget *)
  pairs : int;  (** commodities served: 1 per demand, the active pairs per tick *)
  shed : int;  (** of those, pairs left unroutable by failed edges *)
  congestion : float;
  makespan : float;  (** nan when the workload does not simulate *)
  updates : int;  (** update events applied *)
}

let failed_op seconds ~pairs ~updates =
  { seconds; ok = false; pairs; shed = 0; congestion = nan; makespan = nan; updates }

let served seconds congestion =
  { seconds; ok = true; pairs = 1; shed = 0; congestion; makespan = nan; updates = 1 }

type instance = {
  setup : unit -> float;  (** one timed install, from graph generation *)
  restart : unit -> float;  (** one timed restart of the last install *)
  op : int -> outcome;
  held : unit -> Obj.t;  (** the installed state a restart would rebuild *)
  counts : unit -> (string * float) list;  (** workload-specific layer counts *)
}

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Distinct ordered pairs drawn from [nodes]. *)
let draw_pairs rng nodes count =
  let seen = Hashtbl.create count in
  let out = ref [] in
  let len = Array.length nodes in
  while Hashtbl.length seen < count do
    let s = nodes.(Rng.int rng len) and t = nodes.(Rng.int rng len) in
    if s <> t && not (Hashtbl.mem seen (s, t)) then begin
      Hashtbl.add seen (s, t) ();
      out := (s, t) :: !out
    end
  done;
  List.rev !out

(* The forest's size, and one extra timed [Racke.tree_loads] call per
   tree: the capacity-routing pass that dominates each tree's build. *)
let forest_counts ~pool g trees =
  [ ("oblivious.trees", float_of_int (List.length trees));
    ( "oblivious.tree_loads_ms",
      mean
        (List.map
           (fun tree -> snd (time (fun () -> Racke.tree_loads ~pool g tree)) *. 1e3)
           trees) ) ]

let system_counts g ps =
  let arena = Path_system.arena ps in
  let pairs = List.length (Path_system.known_pairs ps) in
  [ ("graph.n", float_of_int (Graph.n g));
    ("graph.m", float_of_int (Graph.m g));
    ("core.pairs_admitted", float_of_int pairs);
    ("core.paths", float_of_int (Arena.length arena));
    ( "core.arena_bytes_per_pair",
      float_of_int (Arena.memory_bytes arena) /. float_of_int (max 1 pairs) ) ]

(* fattree-racke.  The paper's Stage-1 base at the middle size: set-up is
   Räcke-bound, routing is a cold Stage-4 solve over a working set larger
   than cache, and the store's write path (install) and read path
   (restart) both run. *)
let fattree_racke ?(k = 64) ?(pool_size = 2048) ?(demand_pairs = 256) seed =
  let alpha = 4 in
  let pool = Pool.default () in
  let router = router_rng () in
  let forest_rng = Rng.split router and sample_rng = Rng.split router in
  let input_rng = Rng.create seed in
  let edge_switches =
    let half = k / 2 in
    Array.init (k * half) (fun i -> (half * half) + ((i / half) * k) + half + (i mod half))
  in
  let pairs = draw_pairs input_rng edge_switches pool_size in
  let pool_arr = Array.of_list pairs in
  let demand i =
    let r = Rng.split_at input_rng i in
    let chosen = Array.copy pool_arr in
    Rng.shuffle r chosen;
    Demand.of_list
      (List.init demand_pairs (fun j ->
           let s, t = chosen.(j) in
           (s, t, 0.5 +. Rng.float r)))
  in
  let forest_recipe g =
    Store.recipe ~kind:"bench-racke-forest"
      [ ("graph", Codec.hex_of_key (Codec.graph_digest g));
        ("rng", Codec.hex_of_key (Rng.fingerprint forest_rng)) ]
  in
  let system_recipe g =
    Store.recipe ~kind:"bench-alpha-sample"
      [ ("graph", Codec.hex_of_key (Codec.graph_digest g));
        ("rng", Codec.hex_of_key (Rng.fingerprint sample_rng));
        ("pairs", string_of_int seed);
        ("alpha", string_of_int alpha) ]
  in
  let installs = ref 0 in
  let store_dir = ref "" in
  let cold_digests = ref ("", "") in
  let system = ref None in
  let trees = ref [] in
  let setup () =
    incr installs;
    let dir = fresh_dir (Printf.sprintf "store-%d" !installs) in
    let t0 = now () in
    let g = layer "graph.gen" (fun () -> Gen.fat_tree k) in
    let forest =
      layer "oblivious.base" (fun () ->
          Racke.forest ~pool (Rng.copy forest_rng) ~trees:2 ~batch:1 g)
    in
    let base = layer "oblivious.base" (fun () -> Racke.of_forest g forest) in
    let ps = layer "core.install" (fun () ->
        let ps = Sampler.alpha_sample (Rng.copy sample_rng) base ~alpha in
        Path_system.materialize_parallel ~pool ps pairs;
        ps)
    in
    let st = layer "artifact.put" (fun () -> Store.open_ ~dir ()) in
    let fpay = layer "artifact.encode" (fun () -> forest_payload forest) in
    let spay = layer "artifact.encode" (fun () -> system_payload ps pairs) in
    layer "artifact.put" (fun () ->
        Store.put st (forest_recipe g) fpay;
        Store.put st (system_recipe g) spay);
    let dt = now () -. t0 in
    if !store_dir <> "" then rm_rf !store_dir;
    store_dir := dir;
    cold_digests := (digest fpay, digest spay);
    system := Some (g, ps);
    trees := forest;
    dt
  in
  let restart () =
    let hit0 = Obs.counter_value (Obs.counter "artifact.hit") in
    let t0 = now () in
    let g = layer "graph.gen" (fun () -> Gen.fat_tree k) in
    let st = layer "artifact.find" (fun () -> Store.open_ ~dir:!store_dir ()) in
    let find recipe =
      match layer "artifact.find" (fun () -> Store.find st recipe) with
      | Some payload -> payload
      | None -> fail_check "restart.store_hit" "%s missing" (Store.describe recipe)
    in
    let fpay = find (forest_recipe g) in
    let forest =
      layer "artifact.decode" (fun () ->
          List.map (Frt.of_parts g) (Codec.decode_forest fpay))
    in
    let _base = layer "oblivious.base" (fun () -> Racke.of_forest g forest) in
    let spay = find (system_recipe g) in
    let entries = layer "artifact.decode" (fun () -> Codec.decode_path_system g spay) in
    let ps =
      layer "core.install" (fun () ->
          let table = Hashtbl.create (List.length entries) in
          List.iter (fun (pair, paths) -> Hashtbl.replace table pair paths) entries;
          let ps =
            Path_system.of_generator g (fun s t ->
                Option.value (Hashtbl.find_opt table (s, t)) ~default:[])
          in
          Path_system.materialize_parallel ~pool ps pairs;
          ps)
    in
    let dt = now () -. t0 in
    let cold_forest, cold_system = !cold_digests in
    if Obs.counter_value (Obs.counter "artifact.hit") - hit0 <> 2 then
      fail_check "restart.store_hit" "restart did not read both entries back";
    if digest (forest_payload forest) <> cold_forest then
      fail_check "restart.forest_digest" "forest differs from the cold install";
    if digest (system_payload ps pairs) <> cold_system then
      fail_check "restart.system_digest" "path system differs from the cold install";
    system := Some (g, ps);
    dt
  in
  let op i =
    let g, ps = Option.get !system in
    let d = demand i in
    let t0 = now () in
    let result =
      match
        layer "core.materialize" (fun () ->
            Path_system.materialize_parallel ~pool ps (Demand.support d));
        layer "core.route" (fun () -> Semi_oblivious.route g ps d)
      with
      | r -> Some r
      | exception (Invalid_argument _ | Failure _) -> None
    in
    let seconds = now () -. t0 in
    match result with
    | None -> failed_op seconds ~pairs:1 ~updates:1
    | Some (r, c) ->
        check_congestion g r d ~reported:c;
        served seconds c
  in
  let counts () =
    let g, ps = Option.get !system in
    forest_counts ~pool g !trees @ system_counts g ps
  in
  let held () = Obj.repr (!system, !trees) in
  { setup; restart; op; held; counts }

(* hypercube-valiant.  The paper's headline case (Theorem 2.3's
   alpha = log2 n on permutations), where sampling dominates.  No Räcke
   and no store run here, so a change to either must leave it unmoved; it
   is the only workload that runs the packet simulator. *)
let hypercube_valiant seed =
  let d = 9 and packets = 4 in
  let alpha = d in
  let pool = Pool.default () in
  let sample_rng = router_rng () and input_rng = Rng.create seed in
  let demand i =
    let r = Rng.split_at input_rng i in
    let dm = Demand.scale (float_of_int packets) (Demand.random_permutation r (1 lsl d)) in
    (dm, Rng.split r)
  in
  let system = ref None in
  let install () =
    let g = layer "graph.gen" (fun () -> Gen.hypercube d) in
    let base = layer "oblivious.base" (fun () -> Valiant.routing g) in
    let ps = layer "core.install" (fun () -> Sampler.alpha_sample (Rng.copy sample_rng) base ~alpha) in
    system := Some (g, ps);
    ps
  in
  let setup () = snd (time install) in
  (* Nothing is persisted, so a restarted router installs again and
     samples the candidates of its active pairs (the last demand's) anew
     before it can serve them. *)
  let active = ref (Demand.support (fst (demand 0))) in
  let restart () =
    snd
      (time (fun () ->
           let ps = install () in
           layer "core.install" (fun () -> Path_system.materialize_parallel ~pool ps !active)))
  in
  let sim_totals = ref [] in
  let op i =
    let g, ps = Option.get !system in
    let dm, round_rng = demand i in
    active := Demand.support dm;
    let t0 = now () in
    let result =
      match
        layer "core.materialize" (fun () ->
            Path_system.materialize_parallel ~pool ps (Demand.support dm));
        let routing, c = layer "core.route" (fun () -> Semi_oblivious.route g ps dm) in
        let asg = layer "flow.round" (fun () -> Rounding.round round_rng routing dm) in
        let sim = layer "sim.run" (fun () -> Simulator.run g asg) in
        (routing, c, asg, sim)
      with
      | v -> Some v
      | exception (Invalid_argument _ | Failure _) -> None
    in
    let seconds = now () -. t0 in
    match result with
    | None | Some (_, _, _, Simulator.Out_of_budget _) -> failed_op seconds ~pairs:1 ~updates:1
    | Some (routing, c, asg, Simulator.Completed s) ->
        check_congestion g routing dm ~reported:c;
        let n_packets = Array.fold_left (fun acc (_, ps) -> acc + Array.length ps) 0 asg in
        if n_packets <> packets * Demand.support_size dm then
          fail_check "round.packets" "%d packets for %d pairs" n_packets
            (Demand.support_size dm);
        check_delivered s ~packets:n_packets;
        sim_totals := (n_packets, s.total_waits, s.max_queue) :: !sim_totals;
        { (served seconds c) with makespan = float_of_int s.makespan }
  in
  let counts () =
    let g, ps = Option.get !system in
    let packets, waits, queue =
      List.fold_left
        (fun (p, w, q) (p', w', q') -> (p + p', w + w', max q q'))
        (0, 0, 0) !sim_totals
    in
    [ ("sim.packets", float_of_int packets);
      ("sim.total_waits", float_of_int waits);
      ("sim.max_queue", float_of_int queue) ]
    @ system_counts g ps
  in
  let held () = Obj.repr !system in
  { setup; restart; op; held; counts }

(* wan-churn.  The daemon's operating mode: warm MWU reuses the previous
   tick's solution, the working set fits in cache, admission is an
   incremental arena append, and the fault windows force re-solves on
   the surviving paths.  A run replays 1,000-tick episodes, each a fresh
   service on a fresh path system with its own stream and fault windows:
   the 64 nodes have only 4,032 ordered pairs, so in one long stream
   admission died out after about 2,000 ticks, and the first few hundred
   ticks alone set the p99.  A restart restores the service from a
   checkpoint taken after the warm-up ticks of episode 0. *)
let wan_churn seed =
  let n = 64 and alpha = 4 and pairs = 64 and warmup = 50 and episode_ticks = 1000 in
  let pool = Pool.default () in
  let router = router_rng () in
  let graph_rng = Rng.split router and base_rng = Rng.split router in
  let sample_rng = Rng.split router in
  let m = Graph.m (Gen.random_regular (Rng.copy graph_rng) n 4) in
  let root = Rng.create seed in
  (* Episodes are drawn in order, each from its own split of [root]. *)
  let episode () =
    let rng = Rng.split root in
    let stream_rng = Rng.split rng and fault_rng = Rng.split rng in
    let events =
      Workload.generate ~rate_churn:0.2 stream_rng ~n ~ticks:episode_ticks ~pairs ~churn:0.15
    in
    let batches = Array.of_list (Update.by_tick events) in
    (* One edge fails for 20-40 batches somewhere in every block of 200. *)
    let faults = Array.make (Array.length batches) [] in
    for block = 0 to (Array.length batches / 200) - 1 do
      let start = (block * 200) + 50 + Rng.int fault_rng 100 in
      let stop = start + 20 + Rng.int fault_rng 21 in
      let e = Rng.int fault_rng m in
      if stop < Array.length batches then begin
        faults.(start) <- [ Serve.Fail e ];
        faults.(stop) <- [ Serve.Repair e ]
      end
    done;
    (Checkpoint.events_digest events, batches, faults)
  in
  let first = episode () in
  let installed = ref None and live = ref None in
  let reports = ref [] in
  let trees = ref [] and base = ref None in
  let install () =
    let g = layer "graph.gen" (fun () -> Gen.random_regular (Rng.copy graph_rng) n 4) in
    let forest = layer "oblivious.base" (fun () -> Racke.forest ~pool (Rng.copy base_rng) g) in
    let b = layer "oblivious.base" (fun () -> Racke.of_forest g forest) in
    trees := forest;
    base := Some (g, b);
    let ps = layer "core.install" (fun () -> Sampler.alpha_sample (Rng.copy sample_rng) b ~alpha) in
    (g, ps)
  in
  let setup () =
    let t0 = now () in
    let g, ps = install () in
    let srv = layer "serve.create" (fun () -> Serve.create g ps) in
    let dt = now () -. t0 in
    installed := Some srv;
    dt
  in
  let check srv (r : Serve.report) =
    match Serve.routing srv with
    | None -> fail_check "serve.routing" "no routing after tick %d" r.tick
    | Some routing ->
        let routed =
          Demand.filter (fun s t _ -> Routing.distribution routing s t <> []) (Serve.demand srv)
        in
        if Demand.support_size routed <> r.active_pairs - r.unroutable then
          fail_check "serve.covers" "tick %d routes %d of %d routable pairs" r.tick
            (Demand.support_size routed) (r.active_pairs - r.unroutable);
        check_congestion ~dead:(Array.of_list (Serve.failed_edges srv)) (Serve.graph srv)
          routing routed ~reported:r.congestion
  in
  let routing_digest s = digest (Codec.encode_routing (Option.get (Serve.routing s))) in
  let checkpoint = ref None in
  (* The first restart warms the installed service up on the first
     batches of episode 0 and checkpoints it; every restart restores
     that checkpoint. *)
  let restart () =
    let stream_digest, batches, faults = first in
    if !checkpoint = None then begin
      let srv0 = Option.get !installed in
      for i = 0 to warmup - 1 do
        let tick, batch = batches.(i) in
        check srv0 (Serve.step srv0 ~tick ~faults:faults.(i) batch)
      done;
      checkpoint :=
        Some
          ( Checkpoint.write ~dir:(fresh_dir "checkpoint") ~stream_digest ~graph:(Serve.graph srv0)
              ~config:Serve.default_config (Serve.snapshot srv0),
            routing_digest srv0 )
    end;
    let path, expected = Option.get !checkpoint in
    let t0 = now () in
    let g, ps = install () in
    let srv =
      layer "serve.restore" (fun () ->
          let digest', _, state = Checkpoint.load ~graph:g path in
          if digest' <> stream_digest then fail_check "restart.checkpoint" "stream digest differs";
          Serve.restore g ps state)
    in
    let dt = now () -. t0 in
    if routing_digest srv <> expected then
      fail_check "restart.routing_digest" "restored routing differs from the checkpointed one";
    dt
  in
  (* Episode 0 is served by its own fresh service, not the checkpointed
     one, like every later episode. *)
  let current = ref first and next = ref 0 in
  let op _ =
    let _, batches, _ = !current in
    if !live = None || !next = Array.length batches then begin
      if !live <> None then current := episode ();
      next := 0;
      let g, b = Option.get !base in
      live := Some (Serve.create g (Sampler.alpha_sample (Rng.copy sample_rng) b ~alpha))
    end;
    let srv = Option.get !live in
    let _, batches, faults = !current in
    let t = !next in
    incr next;
    let tick, batch = batches.(t) in
    let t0 = now () in
    let result =
      match layer "serve.step" (fun () -> Serve.step srv ~tick ~faults:faults.(t) batch) with
      | r -> Some r
      | exception (Invalid_argument _ | Failure _) -> None
    in
    let seconds = now () -. t0 in
    match result with
    | None ->
        failed_op seconds ~pairs:(Demand.support_size (Serve.demand srv))
          ~updates:(List.length batch)
    | Some r ->
        check srv r;
        reports := r :: !reports;
        { seconds; ok = true; pairs = r.active_pairs; shed = r.unroutable;
          congestion = r.congestion; makespan = nan; updates = r.events }
  in
  let counts () =
    let srv = Option.get !live in
    let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 !reports) in
    let ticks mode = sum (fun (r : Serve.report) -> if r.mode = mode then 1 else 0) in
    [ ("serve.solve_ms",
       sum (fun (r : Serve.report) -> r.solve_ns) /. 1e6
       /. float_of_int (max 1 (List.length !reports)));
      ("serve.admitted", sum (fun (r : Serve.report) -> r.admitted));
      ("serve.deferred", sum (fun (r : Serve.report) -> r.deferred));
      ("serve.warm_ticks", ticks Serve.Warm);
      ("serve.cold_ticks", ticks Serve.Cold);
      ("serve.degraded_ticks", ticks Serve.Degraded);
      ("serve.rerouted", sum (fun (r : Serve.report) -> r.rerouted));
      ("serve.unroutable_pair_ticks", sum (fun (r : Serve.report) -> r.unroutable)) ]
    @ forest_counts ~pool (Serve.graph srv) !trees
    @ system_counts (Serve.graph srv) (Serve.system srv)
  in
  let held () = Obj.repr !installed in
  { setup; restart; op; held; counts }

(* ---- driver ---- *)

type spec = {
  make : int -> instance;  (** the instance for a seed *)
  ops_per_second : float;
      (** ops a run serves per second of --seconds, about the rate of a
          2-vCPU Xeon: runs serve a fixed number of demands, the same on
          every commit, so a faster commit is not measured on other inputs *)
  warm_ops : int;  (** run first and checked, left out of the latency figures *)
  trace_ops : int;  (** op count of each pass of a --trace 1 run *)
  rounds : int;  (** install and restart sampling rounds in a run *)
  round_s : float;  (** each round samples each for at least this long *)
}

let workloads =
  [ ( "fattree-racke",
      { make = fattree_racke;
        ops_per_second = 1.0; warm_ops = 1; trace_ops = 6;
        rounds = 4; round_s = 0.3 } );
    ( "hypercube-valiant",
      { make = hypercube_valiant;
        ops_per_second = 1.0; warm_ops = 1; trace_ops = 6;
        rounds = 4; round_s = 0.3 } );
    ( "wan-churn",
      (* Installs and restarts take tens of milliseconds, so 32 short
         rounds spread them over the whole run, as the ops are; with 4
         rounds their medians rode on the machine's speed in four
         moments of it. *)
      { make = wan_churn;
        ops_per_second = 1000.0; warm_ops = 0; trace_ops = 1000;
        rounds = 32; round_s = 0.05 } ) ]

let run_ops spec ~seconds =
  max (spec.warm_ops + 3) (int_of_float (spec.ops_per_second *. float_of_int seconds))

type pass = {
  frt_ms : float;  (** [frt.build] span time per install *)
  setup_s : float list;
  restart_s : float list;
  heap_mb : float;
  outcomes : outcome list;  (** every op, in order *)
}

(* Installs and restarts are sampled in [rounds] rounds spread evenly
   over the ops, so their medians see the same machine conditions as the
   ops.  A round samples each at least once and for at least [round_s]
   seconds. *)
let run_pass inst ~ops ~rounds ~round_s =
  let frt_span = Obs.span "frt.build" in
  let frt_ns = ref 0 and setup_s = ref [] and restart_s = ref [] and heap_mb = ref nan in
  let sample f =
    Gc.full_major ();
    let t0 = now () in
    let rec go acc =
      let acc = f () :: acc in
      if now () -. t0 >= round_s || List.length acc >= 500 then acc else go acc
    in
    go []
  in
  let round () =
    phase := "setup";
    let frt0 = Obs.span_total_ns frt_span in
    setup_s := sample inst.setup @ !setup_s;
    frt_ns := !frt_ns + (Obs.span_total_ns frt_span - frt0);
    if Float.is_nan !heap_mb then
      heap_mb := float_of_int (Obj.reachable_words (inst.held ()) * (Sys.word_size / 8)) /. 1048576.0;
    phase := "restart";
    restart_s := sample inst.restart @ !restart_s;
    phase := "op"
  in
  let per_round = (ops + rounds - 1) / rounds in
  let outcomes =
    List.init ops (fun i ->
        if i mod per_round = 0 then round ();
        inst.op i)
  in
  { frt_ms = float_of_int !frt_ns /. 1e6 /. float_of_int (List.length !setup_s);
    setup_s = !setup_s;
    restart_s = !restart_s;
    heap_mb = !heap_mb;
    outcomes }

let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let pass_seconds p =
  List.fold_left ( +. ) 0.0 p.setup_s
  +. List.fold_left ( +. ) 0.0 p.restart_s
  +. sum (fun o -> o.seconds) p.outcomes

let end_to_end spec p =
  let measured = drop spec.warm_ops p.outcomes in
  let lat = List.map (fun o -> o.seconds *. 1e3) measured in
  let tail_ms, tail_q = tail lat in
  Printf.eprintf "%d ops measured, tail = p%.1f\n" (List.length lat) (100.0 *. tail_q);
  [ ("setup_s", median p.setup_s, "s");
    ("restart_s", median p.restart_s, "s");
    ("setup_heap_mb", p.heap_mb, "MB");
    ("latency_ms.p50", median lat, "ms");
    ("latency_ms.tail", tail_ms, "ms");
    ( "updates_per_s",
      float_of_int (sumi (fun o -> o.updates) measured) /. sum (fun o -> o.seconds) measured,
      "1/s" );
    ("congestion.mean", mean (List.map (fun o -> o.congestion) p.outcomes), "ratio") ]

let counter_names =
  [ ("flow.mwu_iterations", "mwu.iterations");
    ("flow.mwu_oracle_calls", "mwu.oracle_calls");
    ("flow.sssp_batches", "mwu.sssp_batches");
    ("artifact.hits", "artifact.hit");
    ("artifact.misses", "artifact.miss");
    ("artifact.bytes_written", "artifact.bytes_written");
    ("artifact.bytes_read", "artifact.bytes_read") ]

(* The same fixed work three times: untraced, traced, untraced again, so
   the tracing overhead is not confused with the process warming up.
   Per-layer timings are per unit of the phase that owns the layer (per
   install, restart or op); counts and allocation are totals over the
   traced pass. *)
let per_layer spec ~seed =
  let ops = spec.trace_ops in
  (* One install and one restart per round, in 4 rounds: the traced and
     untraced passes do equal work. *)
  let run_pass inst ~ops = run_pass inst ~ops ~rounds:4 ~round_s:0.0 in
  let untraced () = pass_seconds (run_pass (spec.make seed) ~ops) in
  let before = untraced () in
  let inst = spec.make seed in
  Hashtbl.reset layer_table;
  Obs.reset_metrics ();
  Obs.clear_trace ();
  Obs.set_tracing true;
  traced := true;
  let p =
    Fun.protect
      ~finally:(fun () -> Obs.set_tracing false)
      (fun () -> run_pass inst ~ops)
  in
  let counts = inst.counts () in
  traced := false;
  let counters =
    List.map
      (fun (name, c) -> (name, float_of_int (Obs.counter_value (Obs.counter c))))
      counter_names
  in
  let dropped = float_of_int (Obs.dropped_events ()) in
  let after = untraced () in
  let units = function
    | "setup" -> List.length p.setup_s
    | "restart" -> List.length p.restart_s
    | _ -> List.length p.outcomes
  in
  let per ph name = float_of_int (layer_ns ph name) /. 1e6 /. float_of_int (max 1 (units ph)) in
  let total_ms = pass_seconds p *. 1e3 in
  let unattributed_ms =
    total_ms
    -. (Hashtbl.fold (fun _ a acc -> acc +. float_of_int a.ns) layer_table 0.0 /. 1e6)
  in
  let setup_ms = List.fold_left ( +. ) 0.0 p.setup_s *. 1e3 /. float_of_int (units "setup") in
  let op_ms = sum (fun o -> o.seconds) p.outcomes *. 1e3 /. float_of_int (max 1 (units "op")) in
  let pairs = sumi (fun o -> o.pairs) p.outcomes in
  let shed = sumi (fun o -> if o.ok then o.shed else o.pairs) p.outcomes in
  let makespans = List.filter (fun x -> not (Float.is_nan x)) (List.map (fun o -> o.makespan) p.outcomes) in
  let timings =
    [ ("graph.gen_ms", per "setup" "graph.gen");
      ("oblivious.base_ms", per "setup" "oblivious.base");
      ("oblivious.frt_ms", p.frt_ms);
      ("core.install_ms", per "setup" "core.install");
      ("artifact.encode_ms", per "setup" "artifact.encode");
      ("artifact.put_ms", per "setup" "artifact.put");
      ("serve.create_ms", per "setup" "serve.create");
      ( "restart.rebuild_ms",
        per "restart" "graph.gen" +. per "restart" "oblivious.base" +. per "restart" "core.install" );
      ("artifact.find_ms", per "restart" "artifact.find");
      ("artifact.decode_ms", per "restart" "artifact.decode");
      ("serve.restore_ms", per "restart" "serve.restore");
      ("core.materialize_ms", per "op" "core.materialize");
      ("core.route_ms", per "op" "core.route");
      ("flow.round_ms", per "op" "flow.round");
      ("sim.run_ms", per "op" "sim.run");
      ("serve.step_ms", per "op" "serve.step");
      ("trace.setup_ms", setup_ms);
      ( "trace.restart_ms",
        List.fold_left ( +. ) 0.0 p.restart_s *. 1e3 /. float_of_int (units "restart") );
      ("trace.op_ms", op_ms) ]
  in
  let share a b = if b > 0.0 then a /. b else 0.0 in
  let derived =
    [ ("oblivious.setup_share", share (per "setup" "oblivious.base") setup_ms);
      ("core.materialize_op_share", share (per "op" "core.materialize") op_ms);
      ("oblivious.alloc_mw", layer_mw [ "oblivious.base" ]);
      ("core.alloc_mw", layer_mw [ "core.install"; "core.materialize"; "core.route" ]);
      ("serve.alloc_mw", layer_mw [ "serve.create"; "serve.step"; "serve.restore" ]);
      ("sim.makespan_mean", if makespans = [] then 0.0 else mean makespans);
      ("obs.trace_overhead", pass_seconds p /. ((before +. after) /. 2.0));
      ("obs.dropped_events", dropped);
      ("unattributed_ms", unattributed_ms);
      ("unattributed_share", share unattributed_ms total_ms);
      ("fail_frac", float_of_int shed /. float_of_int (max 1 pairs)) ]
    @ counters
  in
  (p, timings @ derived @ counts)

(* Every per-layer metric, in output order, with its unit; a workload
   reports 0 for a layer it never calls. *)
let per_layer_units =
  [ ("graph.gen_ms", "ms"); ("graph.n", "count"); ("graph.m", "count");
    ("oblivious.base_ms", "ms"); ("oblivious.frt_ms", "ms");
    ("oblivious.tree_loads_ms", "ms"); ("oblivious.trees", "count");
    ("oblivious.alloc_mw", "Mwords"); ("oblivious.setup_share", "ratio");
    ("core.install_ms", "ms"); ("core.materialize_ms", "ms"); ("core.route_ms", "ms");
    ("core.pairs_admitted", "count"); ("core.paths", "count");
    ("core.arena_bytes_per_pair", "bytes"); ("core.alloc_mw", "Mwords");
    ("core.materialize_op_share", "ratio");
    ("flow.mwu_iterations", "count"); ("flow.mwu_oracle_calls", "count");
    ("flow.sssp_batches", "count"); ("flow.round_ms", "ms");
    ("sim.run_ms", "ms"); ("sim.packets", "count"); ("sim.total_waits", "count");
    ("sim.max_queue", "count"); ("sim.makespan_mean", "steps");
    ("serve.create_ms", "ms"); ("serve.step_ms", "ms"); ("serve.solve_ms", "ms");
    ("serve.alloc_mw", "Mwords");
    ("serve.restore_ms", "ms"); ("serve.admitted", "count"); ("serve.deferred", "count");
    ("serve.warm_ticks", "count"); ("serve.cold_ticks", "count");
    ("serve.degraded_ticks", "count"); ("serve.rerouted", "count");
    ("serve.unroutable_pair_ticks", "count");
    ("artifact.encode_ms", "ms"); ("artifact.put_ms", "ms"); ("artifact.find_ms", "ms");
    ("artifact.decode_ms", "ms"); ("artifact.bytes_written", "bytes");
    ("artifact.bytes_read", "bytes"); ("artifact.hits", "count");
    ("artifact.misses", "count"); ("restart.rebuild_ms", "ms");
    ("trace.setup_ms", "ms"); ("trace.restart_ms", "ms"); ("trace.op_ms", "ms");
    ("obs.trace_overhead", "ratio"); ("obs.dropped_events", "count");
    ("unattributed_ms", "ms"); ("unattributed_share", "ratio"); ("fail_frac", "ratio") ]

(* Printed only once every check has passed: a failed check exits 1
   before any result. *)
let print_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed body

let run_workload spec ~seed ~seconds ~trace =
  let p, metrics =
    if trace then begin
      let p, values = per_layer spec ~seed in
      ( p,
        List.map
          (fun (name, unit) ->
            (name, Option.value (List.assoc_opt name values) ~default:0.0, unit))
          per_layer_units )
    end
    else begin
      let ops = run_ops spec ~seconds in
      let p = run_pass (spec.make seed) ~ops ~rounds:spec.rounds ~round_s:spec.round_s in
      (p, end_to_end spec p)
    end
  in
  List.iter
    (fun (name, value, _) ->
      if not (Float.is_finite value) then fail_check "metric.finite" "%s is %g" name value)
    metrics;
  print_result
    ~attempted:(List.length p.outcomes)
    ~failed:(sumi (fun o -> if o.ok then 0 else 1) p.outcomes)
    metrics

(* ---- self-test: the checks trip on known-bad inputs ---- *)

let expect_trip name f =
  match f () with
  | () ->
      Printf.eprintf "self-test: check %s did not trip\n" name;
      false
  | exception Check_failed (got, detail) when got = name ->
      Printf.eprintf "self-test: %s tripped (%s)\n" name detail;
      true
  | exception Check_failed (got, detail) ->
      Printf.eprintf "self-test: expected %s, got %s (%s)\n" name got detail;
      false

let self_test () =
  (* A routing whose weights were moved after the solve no longer has the
     congestion the solver reported. *)
  let g = Gen.hypercube 4 in
  let ps = Sampler.alpha_sample (Rng.create 1) (Valiant.routing g) ~alpha:4 in
  let d = Demand.random_permutation (Rng.create 2) (Graph.n g) in
  let r, c = Semi_oblivious.route g ps d in
  check_congestion g r d ~reported:c;
  let perturbed =
    Routing.make
      (List.map
         (fun (s, t) ->
           match Routing.distribution r s t with
           | (_, p) :: _ -> ((s, t), [ (1.0, p) ])
           | [] -> assert false)
         (Demand.support d))
  in
  let routing_trips =
    expect_trip "routing.congestion" (fun () -> check_congestion g perturbed d ~reported:c)
  in
  (* A byte flipped in a stored entry makes the restart miss the store. *)
  let inst = fattree_racke ~k:8 ~pool_size:32 ~demand_pairs:8 3 in
  ignore (inst.setup ());
  ignore (inst.restart ());
  let dir = Filename.concat work_dir "store-1" in
  let entry =
    List.find (fun f -> Filename.check_suffix f ".art") (Array.to_list (Sys.readdir dir))
  in
  let path = Filename.concat dir entry in
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x01));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  let store_trips = expect_trip "restart.store_hit" (fun () -> ignore (inst.restart ())) in
  routing_trips && store_trips

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  fattree-racke | hypercube-valiant | wan-churn");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  run size: demands for about S seconds of calls");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--self-test", Arg.Set self, " show the checks trip on known-bad inputs") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --self-test";
  let code =
    match
      if !self then (if self_test () then 0 else 1)
      else
        match List.assoc_opt !workload workloads with
        | None ->
            Printf.eprintf "unknown workload %S\n" !workload;
            2
        | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
            Printf.eprintf "--seconds must be positive and --trace 0 or 1\n";
            2
        | Some spec ->
            (* One domain.  On a 2-vCPU VM a second domain left no core
               for anything else: it sped up only fattree-racke's install
               (by a quarter), made demands on fattree-racke and
               hypercube-valiant slower, and doubled the spread of every
               time between runs; wan-churn's ticks ran twice as slow. *)
            Pool.set_default_jobs 1;
            run_workload spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
            0
    with
    | code -> code
    | exception Check_failed (name, detail) ->
        Printf.eprintf "check failed: %s: %s\n" name detail;
        1
  in
  rm_rf work_dir;
  Pool.shutdown (Pool.default ());
  exit code
