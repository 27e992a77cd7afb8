(** Oblivious routings.

    An oblivious routing fixes, for every vertex pair, a distribution over
    simple paths {e before} any demand is seen.  The semi-oblivious
    construction of the paper samples its candidate paths from exactly such
    a distribution, so this type is the substrate Theorem 5.3 builds on.

    Distributions are produced lazily per pair and memoized, because most
    experiments only touch the pairs in a demand's support.  Sampling does
    not need the whole distribution: a routing built with {!make_indexed}
    (Valiant's trick, Räcke's tree mixture) knows its per-pair weights up
    front and builds a path only when an index is drawn, so {!draw} on a
    pair with a Θ(n) support builds just the drawn paths and caches
    nothing.  Routings built with {!make} draw from their memoized
    {!distribution}. *)

type t

type indexed
(** One pair's distribution in indexed form: positive weights, and the
    path at each index, built on demand. *)

val indexed : float array -> (int -> Sso_graph.Path.t) -> indexed
(** [indexed w path]: index [i] has weight [w.(i)] (not necessarily
    normalized) and path [path i].  Every weight is positive, so index [i]
    is the [i]-th entry of {!distribution}.
    @raise Invalid_argument if [w] is empty or a weight is not [> 0]. *)

val make :
  name:string ->
  Sso_graph.Graph.t ->
  (int -> int -> (float * Sso_graph.Path.t) list) ->
  t
(** [make ~name g dist] wraps a per-pair distribution generator.  For every
    [s <> t], [dist s t] must return a non-empty list of weighted
    (s,t)-paths (weights need not be normalized; they are when used).  The
    generator is called at most once per pair, under the routing's lock. *)

val make_indexed :
  name:string -> Sso_graph.Graph.t -> (int -> int -> indexed) -> t
(** [make_indexed ~name g gen]: [gen s t] is the pair's distribution in
    indexed form.  {!distribution} builds and memoizes every path of it;
    {!draw} builds only the drawn ones, calling [gen] and its path
    function outside the routing's lock, possibly from several domains at
    once, so both must be thread-safe. *)

val name : t -> string

val graph : t -> Sso_graph.Graph.t

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** Memoized, normalized distribution for a pair ([s <> t]). *)

val preload : t -> ((int * int) * (float * Sso_graph.Path.t) list) list -> unit
(** Install already-normalized distributions (as previously returned by
    {!distribution}) into the memo cache, bypassing re-normalization so the
    installed weights are bit-identical to the originals.  This is how the
    artifact store warm-starts a routing: cached pairs answer from the
    preloaded table, uncached pairs fall through to the generator.
    @raise Invalid_argument on empty lists, non-positive weights, or
    endpoint mismatches. *)

val draw :
  Sso_prng.Rng.t -> t -> int -> int -> count:int -> Sso_graph.Path.t list
(** [draw rng r s t ~count] draws [count] paths from [R(s,t)] with
    replacement, in draw order — the sampling primitive behind α-samples.
    It makes [count] {!Sso_prng.Rng.discrete} calls over the normalized
    weights of {!distribution}, then builds each distinct drawn index's
    path once (repeated draws share it).  A pair of an indexed routing
    that {!distribution} has not cached builds no other path; every drawn
    path gets {!distribution}'s endpoint check.
    @raise Invalid_argument if [s = t] or [count < 0]. *)

val sample : Sso_prng.Rng.t -> t -> int -> int -> Sso_graph.Path.t
(** [sample rng r s t] is the single path of [draw rng r s t ~count:1]. *)

val to_routing : t -> (int * int) list -> Sso_flow.Routing.t
(** Restriction of the oblivious routing to a finite set of pairs, as a
    {!Sso_flow.Routing.t} (used to evaluate [cong(R,d)]). *)

val congestion : t -> Sso_demand.Demand.t -> float
(** Expected congestion [cong(R,d)] of obliviously routing [d]. *)

val dilation : t -> Sso_demand.Demand.t -> int
(** Max hops over support paths of pairs in [supp(d)]. *)

val support_sparsity : t -> (int * int) list -> int
(** Largest per-pair support size among the given pairs — what "sparsity"
    would mean for the oblivious routing itself (Section 1.1 argues this is
    inherently large for competitive routings, unlike semi-oblivious
    candidate systems). *)
