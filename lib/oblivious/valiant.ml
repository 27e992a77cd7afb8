module Graph = Sso_graph.Graph
module Path = Sso_graph.Path

let dimension_of g =
  let n = Graph.n g in
  let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v / 2) in
  let d = log2 0 n in
  if 1 lsl d <> n then invalid_arg "Valiant: vertex count is not a power of two";
  d

let bitfix_vertices d s t =
  let rec go v acc bit =
    if bit >= d then List.rev acc
    else
      let diff = (v lxor t) land (1 lsl bit) in
      if diff = 0 then go v acc (bit + 1)
      else
        let v' = v lxor (1 lsl bit) in
        go v' (v' :: acc) (bit + 1)
  in
  go s [ s ] 0

let bitfix_path g s t =
  let d = dimension_of g in
  Path.of_vertices g (bitfix_vertices d s t)

(* Every intermediate [r] has weight [1/n].  The weight vector is built
   per pair, so the routing holds no O(n) table between draws. *)
let through_intermediates ~name g leg =
  let n = Graph.n g in
  let w = 1.0 /. float_of_int n in
  Oblivious.make_indexed ~name g (fun s t ->
      Oblivious.indexed (Array.make n w) (fun r -> Path.concat g (leg s r) (leg r t)))

let routing g =
  (* Validate that g is a hypercube before first use. *)
  let (_ : int) = dimension_of g in
  through_intermediates ~name:"valiant" g (bitfix_path g)

let generalized ~base =
  let leg a b =
    if a = b then Path.trivial a else snd (List.hd (Oblivious.distribution base a b))
  in
  through_intermediates ~name:("valiant+" ^ Oblivious.name base) (Oblivious.graph base) leg
