(* Candidate path sets as arena slices — the flat index Stage-4 solvers
   walk in place.

   The candidate set is unpacked once per solve into [(cand_off, edge_off,
   flat)] int arrays, and every round's oracle/accumulation loops run over
   those arrays — no per-path boxed array is touched until the final
   routing is emitted.  Candidates keep their generation order (the order
   the boxed oracles scanned lists in), and [rank] additionally stores, per
   pair, the candidate order ascending by [Path.compare] — the order the
   boxed solvers' [Path_map] imposed on outputs — so results stay
   bit-identical to the list-based implementation this replaces.

   The index also owns a local edge space: the distinct graph edges of
   the candidates are numbered 0..k-1 in first-seen order, [flat] holds
   those local ids and [edges] maps each back to its graph edge.  Solvers
   size their per-edge state to k, so a round costs O(candidate edges)
   however large the graph is.  [iter_edges], [fold_edges] and [find]
   still speak graph ids.

   Candidates are distinct within a pair: every index comes from a
   [Path_system], whose validation rejects duplicate paths. *)

module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Graph = Sso_graph.Graph

type t = {
  arena : Arena.t;
  pos : (int * int, int) Hashtbl.t;  (* pair -> pair position (first wins) *)
  cand_off : int array;  (* pair position -> candidate range, npairs + 1 *)
  slice_ids : int array;  (* candidate -> arena slice handle *)
  rank : int array;  (* per pair range: candidates ascending by path order *)
  edge_off : int array;  (* candidate -> edge range, ncands + 1 *)
  flat : int array;  (* concatenated local edge ids, path order *)
  edges : int array;  (* local edge id -> graph edge id *)
}

(* Order two candidates the way [Path.compare] orders paths of one pair:
   fewer hops first, then lexicographic on (graph) edge ids. *)
let compare_cands edge_off flat c1 c2 =
  let h1 = edge_off.(c1 + 1) - edge_off.(c1) in
  let h2 = edge_off.(c2 + 1) - edge_off.(c2) in
  if h1 <> h2 then Int.compare h1 h2
  else begin
    let rec go k =
      if k = h1 then 0
      else
        match Int.compare flat.(edge_off.(c1) + k) flat.(edge_off.(c2) + k) with
        | 0 -> go (k + 1)
        | c -> c
    in
    go 0
  end

let of_arena arena ranges =
  let entries = Array.of_list ranges in
  let npairs = Array.length entries in
  let pos = Hashtbl.create ((2 * npairs) + 1) in
  Array.iteri
    (fun i (pair, _) -> if not (Hashtbl.mem pos pair) then Hashtbl.add pos pair i)
    entries;
  let cand_off = Array.make (npairs + 1) 0 in
  for i = 0 to npairs - 1 do
    let _, (_, count) = entries.(i) in
    cand_off.(i + 1) <- cand_off.(i) + count
  done;
  let ncands = cand_off.(npairs) in
  let slice_ids = Array.make ncands 0 in
  for i = 0 to npairs - 1 do
    let _, (first, count) = entries.(i) in
    for k = 0 to count - 1 do
      slice_ids.(cand_off.(i) + k) <- first + k
    done
  done;
  let edge_off, flat = Arena.unpack arena slice_ids in
  let rank = Array.init ncands Fun.id in
  let cmp = compare_cands edge_off flat in
  for i = 0 to npairs - 1 do
    let lo = cand_off.(i) and hi = cand_off.(i + 1) in
    let seg = Array.sub rank lo (hi - lo) in
    Array.sort cmp seg;
    Array.blit seg 0 rank lo (hi - lo)
  done;
  (* Number the distinct edges in first-seen order, rewriting [flat] to
     local ids in the same pass; [local] is graph-sized scratch. *)
  let local = Array.make (Graph.m (Arena.graph arena)) (-1) in
  let edges = Array.make (Array.length flat) 0 in
  let k = ref 0 in
  for j = 0 to Array.length flat - 1 do
    let e = flat.(j) in
    let l = local.(e) in
    if l >= 0 then flat.(j) <- l
    else begin
      local.(e) <- !k;
      edges.(!k) <- e;
      flat.(j) <- !k;
      incr k
    end
  done;
  let edges = Array.sub edges 0 !k in
  { arena; pos; cand_off; slice_ids; rank; edge_off; flat; edges }

let position sc pair = match Hashtbl.find_opt sc.pos pair with Some i -> i | None -> -1
let ncands sc = sc.cand_off.(Array.length sc.cand_off - 1)
let is_empty_at sc i = sc.cand_off.(i) >= sc.cand_off.(i + 1)
let range sc i = (sc.cand_off.(i), sc.cand_off.(i + 1))
let path sc c = Arena.to_path sc.arena sc.slice_ids.(c)
let edge_count sc = Array.length sc.edges
let edge sc l = sc.edges.(l)
let local_edges sc c = Array.sub sc.flat sc.edge_off.(c) (sc.edge_off.(c + 1) - sc.edge_off.(c))

(* Cheapest candidate of pair position [i] under local-indexed weights
   [w]: the same strict [<] left fold the boxed oracle ran over the
   candidate list, and the same left-to-right sum per path.  The scores
   live in unboxed float refs, so a call allocates nothing.  [-1] when the
   pair has no candidates. *)
let cheapest sc (w : float array) i =
  if Array.length w < Array.length sc.edges then
    invalid_arg "Slice_candidates.cheapest: weight array shorter than the edge space";
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  let best = ref (-1) and bw = ref 0.0 in
  for c = lo to hi - 1 do
    let acc = ref 0.0 in
    for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
      acc := !acc +. Array.unsafe_get w (Array.unsafe_get sc.flat k)
    done;
    if c = lo || !acc < !bw then begin
      bw := !acc;
      best := c
    end
  done;
  !best

let iter_local sc c f =
  for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
    f (Array.unsafe_get sc.flat k)
  done

let iter_edges sc c f =
  for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
    f (Array.unsafe_get sc.edges (Array.unsafe_get sc.flat k))
  done

let fold_edges sc c f init =
  let acc = ref init in
  iter_edges sc c (fun e -> acc := f !acc e);
  !acc

(* Find the candidate of pair position [i] whose edge sequence equals [p]
   (first occurrence in generation order), for warm-start seeding. *)
let find sc i (p : Path.t) =
  let h = Array.length p.Path.edges in
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  let rec go c =
    if c >= hi then -1
    else if
      sc.edge_off.(c + 1) - sc.edge_off.(c) = h
      && begin
           let rec eq k =
             k = h
             || (sc.edges.(sc.flat.(sc.edge_off.(c) + k)) = p.Path.edges.(k)
                && eq (k + 1))
           in
           eq 0
         end
    then c
    else go (c + 1)
  in
  go lo

(* Averaged per-pair distribution in descending path order — the order
   [Path_map.fold ... (c, p) :: acc] produced — merging candidate counts
   with any overflow paths (warm-start paths outside the candidate set). *)
let pair_distribution sc ~counts ~present ~overflow i =
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  let ascending = ref [] in
  for k = hi - 1 downto lo do
    let c = sc.rank.(k) in
    if present.(c) then ascending := (path sc c, counts.(c)) :: !ascending
  done;
  let merged =
    match overflow with
    | None -> !ascending
    | Some bindings ->
        (* Both inputs ascend by path order and never collide: an overflow
           path equal to a candidate would have been seeded as one. *)
        List.merge (fun (p, _) (q, _) -> Path.compare p q) !ascending bindings
  in
  List.fold_left (fun acc (p, c) -> (c, p) :: acc) [] merged
