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

   Candidates are distinct within a pair: every index comes from a
   [Path_system], whose validation rejects duplicate paths. *)

module Path = Sso_graph.Path
module Arena = Sso_graph.Arena

type t = {
  arena : Arena.t;
  pos : (int * int, int) Hashtbl.t;  (* pair -> pair position (first wins) *)
  cand_off : int array;  (* pair position -> candidate range, npairs + 1 *)
  slice_ids : int array;  (* candidate -> arena slice handle *)
  rank : int array;  (* per pair range: candidates ascending by path order *)
  edge_off : int array;  (* candidate -> edge range, ncands + 1 *)
  flat : int array;  (* concatenated edge ids, path order *)
}

(* Order two candidates the way [Path.compare] orders paths of one pair:
   fewer hops first, then lexicographic on edge ids. *)
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
  { arena; pos; cand_off; slice_ids; rank; edge_off; flat }

let position sc pair = match Hashtbl.find_opt sc.pos pair with Some i -> i | None -> -1
let ncands sc = sc.cand_off.(Array.length sc.cand_off - 1)
let is_empty_at sc i = sc.cand_off.(i) >= sc.cand_off.(i + 1)
let range sc i = (sc.cand_off.(i), sc.cand_off.(i + 1))
let path sc c = Arena.to_path sc.arena sc.slice_ids.(c)

(* Cheapest candidate of pair position [i] under [weight]: the same strict
   [<] left fold the boxed oracle ran over the candidate list, on the flat
   arrays.  [-1] when the pair has no candidates. *)
let cheapest sc ~weight i =
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  if lo >= hi then -1
  else begin
    let score c =
      let acc = ref 0.0 in
      for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
        acc := !acc +. weight (Array.unsafe_get sc.flat k)
      done;
      !acc
    in
    let best = ref lo and bw = ref (score lo) in
    for c = lo + 1 to hi - 1 do
      let w = score c in
      if w < !bw then begin
        bw := w;
        best := c
      end
    done;
    !best
  end

let iter_edges sc c f =
  for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
    f (Array.unsafe_get sc.flat k)
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
             k = h || (sc.flat.(sc.edge_off.(c) + k) = p.Path.edges.(k) && eq (k + 1))
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
