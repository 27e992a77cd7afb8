(** Min-congestion multicommodity-flow solvers.

    These implement Stage 4 of the semi-oblivious pipeline — given the
    revealed demand, pick the congestion-minimizing fractional routing on
    the candidate path system — and the offline optimum [opt_{G,ℝ}(d)] the
    competitive ratio compares against.

    Candidate sets are {!Slice_candidates} indexes over a path system's
    arena, built by [Path_system.to_slice_candidates] — the one input type
    of every candidate solver here and in {!Concurrent_flow}.  Two engines are provided and cross-validated in
    the test suite:

    - an exact LP (path formulation, dense simplex) for small instances;
    - a multiplicative-weights (no-regret game) solver whose path oracle is
      pluggable: candidate-set lookup for path-restricted routing, Dijkstra
      for the unrestricted optimum, and a hop-limited DP for the
      hop-constrained optimum used by the completion-time results. *)

val lp_on_slices :
  Sso_graph.Graph.t -> Slice_candidates.t -> Sso_demand.Demand.t -> Routing.t * float
(** Exact minimum congestion of fractionally routing [d] where each pair
    only uses its candidate paths.  Returns the optimal routing and its
    congestion.  @raise Invalid_argument if some demanded pair has no
    candidates.  Intended for instances with up to a few thousand
    (pair, path) variables. *)

val mwu_on_slices :
  ?pool:Sso_engine.Pool.t ->
  ?iters:int ->
  Sso_graph.Graph.t -> Slice_candidates.t -> Sso_demand.Demand.t -> Routing.t * float
(** Approximate version of {!lp_on_slices} via multiplicative weights
    ([iters] defaults to 300; error decays as [O(1/√iters)]).  The oracle
    and load accumulation walk the flat candidate index in place; boxed
    paths appear only in the returned routing.  Per-edge state lives in
    the index's local edge space ({!Slice_candidates.edge_count} edges,
    plus warm-path edges outside it), so a round costs O(candidate edges)
    and allocates per pair only — never O(m); the step size still uses the
    graph's m.  Results are bit-identical to a graph-sized game and for
    any [pool].  @raise Invalid_argument if some demanded pair has no
    candidates. *)

val mwu_on_slices_warm :
  ?pool:Sso_engine.Pool.t ->
  ?iters:int ->
  warm:Routing.t ->
  warm_weight:int ->
  Sso_graph.Graph.t -> Slice_candidates.t -> Sso_demand.Demand.t -> Routing.t * float
(** Incremental re-optimization: seed the MWU with a previous routing
    counted as [warm_weight] already-played rounds, then run [iters] fresh
    rounds.  This is the traffic-engineering control loop — when the
    demand drifts slightly between snapshots, a handful of warm rounds
    recovers near-optimal rates at a fraction of a cold solve's cost.  The
    warm routing should be supported on the same candidate system (its
    paths enter the averaged output verbatim); pairs it does not cover are
    handled by the fresh rounds alone. *)

val lp_unrestricted :
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> float
(** Exact [opt_{G,ℝ}(d)]: edge-based LP over all flows (not just candidate
    paths).  Exact but expensive — meant for small graphs in tests. *)

val mwu_unrestricted :
  ?pool:Sso_engine.Pool.t ->
  ?iters:int ->
  ?batched:bool ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> Routing.t * float
(** Approximate [opt_{G,ℝ}(d)] with a Dijkstra best-response oracle.  The
    returned routing is supported on the paths the oracle produced.

    With [batched] (the default), each round groups the demand's support by
    source — [Demand.support] is sorted, so groups are consecutive runs —
    and answers all of a source's targets from one Dijkstra pass
    ({!Sso_graph.Shortest.dijkstra_paths}).  The routing is bit-identical
    to the per-pair oracle ([batched:false]) and to any [pool] size; the
    flag exists so tests can assert exactly that. *)

val mwu_unrestricted_avoiding :
  ?pool:Sso_engine.Pool.t ->
  ?iters:int ->
  ?batched:bool ->
  avoid:(int -> bool) ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> (Routing.t * float) option
(** Like {!mwu_unrestricted} but never using edges for which [avoid] is
    true — the post-failure optimum of the robustness experiments.
    [None] if a demanded pair is disconnected by the failures. *)

val mwu_hop_limited :
  ?pool:Sso_engine.Pool.t ->
  ?iters:int ->
  ?batched:bool ->
  max_hops:int ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> (Routing.t * float) option
(** Approximate [opt^{(h)}_{G,ℝ}(d)]: min congestion over routings with
    dilation ≤ [max_hops].  [None] if some demanded pair is not reachable
    within the hop budget. *)

val lower_bound_sparse_cut : Sso_graph.Graph.t -> Sso_demand.Demand.t -> float
(** A cheap certified lower bound on [opt_{G,ℝ}(d)]: the max over demanded
    pairs of [d(s,t) / cut-capacity(s,t)], and the average-load bound
    [siz(d) · (min-hop distance) / total capacity].  Used to sanity-check
    the approximate optima from below in tests and experiments. *)
