(** Candidate path sets as arena slices.

    The flat per-solve index the Stage-4 solvers walk in place: candidate
    edge ids are unpacked once into contiguous int arrays ([cand_off] per
    pair, [edge_off] per candidate, [flat] edge ids), so per-round oracle
    and accumulation loops never touch a boxed path.  Alongside the
    generation order the index stores, per pair, the candidate permutation
    ascending by {!Sso_graph.Path.compare} — the order the boxed solvers'
    [Path_map] imposed on outputs — so slice-based solves produce
    bit-identical routings to the list-based implementation they replace.

    {2 Local edge space}

    The index numbers the distinct graph edges its candidates use
    [0 .. edge_count - 1] in first-seen order (one pass over the unpacked
    edges with a graph-sized scratch array — no hashing, no sort).
    Solvers size their per-edge state to that space, so a solver round
    costs O(candidate edges) rather than O(m).  {!cheapest} and
    {!iter_local} speak local ids; {!iter_edges}, {!fold_edges} and
    {!find} keep speaking graph ids.

    Candidates must be distinct within a pair.  Indexes are built by
    [Path_system.to_slice_candidates], and path-system validation rejects
    duplicate paths, so every candidate is its own representative. *)

type t

val of_arena : Sso_graph.Arena.t -> ((int * int) * (int * int)) list -> t
(** [of_arena arena ranges] indexes, per pair, the [count] consecutive
    arena slices starting at [first] (ranges as [(pair, (first, count))];
    the first binding of a duplicated pair wins).  The slices of one pair
    must hold distinct paths. *)

val position : t -> int * int -> int
(** Pair position of a pair, [-1] when the pair is not in the index. *)

val ncands : t -> int
(** Total number of candidates across all pairs. *)

val is_empty_at : t -> int -> bool
(** Does pair position [i] have an empty candidate set? *)

val range : t -> int -> int * int
(** [(lo, hi)]: the candidates of pair position [i] are [lo .. hi - 1], in
    generation order. *)

val path : t -> int -> Sso_graph.Path.t
(** The boxed path of a candidate, read from the arena. *)

val edge_count : t -> int
(** Size [k] of the local edge space: the number of distinct graph edges
    the candidates use. *)

val edge : t -> int -> int
(** Graph edge id of a local edge id. *)

val local_edges : t -> int -> int array
(** Local edge ids of a candidate, in path order (a fresh array). *)

val cheapest : t -> float array -> int -> int
(** [cheapest sc w i]: cheapest candidate of pair position [i] when local
    edge [l] weighs [w.(l)] — the same strict [<] left fold over
    candidates in generation order (ties keep the first) and the same
    per-path left-to-right weight sum as the boxed oracle.  Reads [w]
    directly and allocates nothing; O(edges of the pair's candidates).
    [-1] when the pair has no candidates.
    @raise Invalid_argument if [w] is shorter than {!edge_count}. *)

val iter_local : t -> int -> (int -> unit) -> unit
(** Local edge ids of a candidate, in path order. *)

val iter_edges : t -> int -> (int -> unit) -> unit
(** Graph edge ids of a candidate, in path order. *)

val fold_edges : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val find : t -> int -> Sso_graph.Path.t -> int
(** First candidate of pair position [i] (generation order) whose edge
    sequence equals the path's, or [-1] — warm-start seeding. *)

val pair_distribution :
  t ->
  counts:float array ->
  present:bool array ->
  overflow:(Sso_graph.Path.t * float) list option ->
  int ->
  (float * Sso_graph.Path.t) list
(** The averaged distribution of pair position [i] in descending path
    order (the order [Path_map.fold (fun p c acc -> (c, p) :: acc)]
    produced): the candidates with [present], weighted by [counts],
    merged with the ascending [overflow] list (warm-start paths outside
    the candidate set).  Boxed paths are materialized here and only
    here. *)
