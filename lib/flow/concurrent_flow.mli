(** Garg–Könemann maximum concurrent flow.

    The third, independent min-congestion engine (besides the exact LP and
    the MWU game solver): the classic width-independent fractional packing
    algorithm.  Min-congestion and max concurrent flow are duals — if
    [λ*] is the largest multiplier such that [λ*·d] fits with congestion
    ≤ 1, then [opt cong(d) = 1/λ*] — and Garg–Könemann approximates [λ*]
    within [1+ε] by repeatedly routing along cheapest paths under
    exponentially growing edge lengths.

    We return the accumulated path flows re-normalized into a per-pair
    distribution and its {e measured} congestion, so the result is always
    a feasible routing of [d] regardless of the approximation constant;
    the test suite cross-validates all three engines against each other. *)

val on_slices :
  ?epsilon:float ->
  Sso_graph.Graph.t ->
  Slice_candidates.t ->
  Sso_demand.Demand.t ->
  Routing.t * float
(** Min-congestion routing restricted to candidate paths ([epsilon]
    defaults to 0.1; smaller = more accurate and slower), walking the flat
    candidate index in place.  The oracle reads edge lengths mirrored into
    the index's local edge space; the phase test's length volume still
    sums all m edges left to right, so the phase count is unchanged.
    @raise Invalid_argument if a demanded pair has no candidates. *)

val unrestricted :
  ?epsilon:float ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> Routing.t * float
(** Same with a Dijkstra cheapest-path oracle over all simple paths —
    approximates the offline optimum [opt_{G,ℝ}(d)]. *)
