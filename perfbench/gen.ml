(* Seeded workload generators. Every input the program sees is derived
   from the --seed argument here; the program itself only receives the
   generated files and facts. *)

open Relational

let rng ~seed ~tag = Random.State.make [| seed; tag |]
let edge a b = Fact.make "E" [ Value.int a; Value.int b ]

(* one fact per line in the relational data syntax ([Syntax.parse_fact]) *)
let fact_line f =
  Printf.sprintf "%s(%s)" (Fact.rel f)
    (String.concat ", " (List.map Value.to_string (Fact.tuple f)))

(* one "s p o" line per triple ([Rdf.Graph.of_string]); every term the
   catalog generator emits is a bare word or an integer *)
let triple_line f =
  String.concat " " (List.map Value.to_string (Fact.tuple f))

let write_lines path line facts =
  let oc = open_out_bin path in
  Array.iter
    (fun f ->
      output_string oc (line f);
      output_char oc '\n')
    facts;
  close_out oc

(* --- ingest: E(a, b) uniform over [0, nodes)^2 plus S(a) sources ------- *)

let ingest_facts ~seed ~edges ~nodes ~sources =
  let st = rng ~seed ~tag:1 in
  let e =
    Array.init edges (fun _ ->
        edge (Random.State.int st nodes) (Random.State.int st nodes))
  in
  let s =
    Array.init sources (fun _ -> Fact.make "S" [ Value.int (Random.State.int st nodes) ])
  in
  Array.append e s

(* a fresh fact of the same shape, for the standing-view stream *)
let ingest_fresh ~nodes ~sources ~edges st =
  if Random.State.int st (edges + sources) < sources then
    Fact.make "S" [ Value.int (Random.State.int st nodes) ]
  else edge (Random.State.int st nodes) (Random.State.int st nodes)

(* --- catalog: the Example-1 bands-and-records graph ---------------------- *)

let rating_prob = 0.4
let formed_prob = 0.7

(* sorted, so that the file does not depend on the store's internal order *)
let catalog_facts ~seed ~bands ~records_per_band =
  let g =
    Workload.Datasets.music_catalog ~seed ~bands ~records_per_band ~rating_prob
      ~formed_prob
  in
  let a = Array.of_list (Database.facts (Rdf.Graph.database g)) in
  Array.sort Fact.compare a;
  a

(* a fresh triple about an existing or new record / band *)
let catalog_fresh ~bands ~records_per_band st =
  let str = Value.str and int = Value.int in
  let b = Random.State.int st bands in
  let band = str (Printf.sprintf "band%d" b) in
  let record =
    str (Printf.sprintf "record%d_%d" b (Random.State.int st (records_per_band + 4)))
  in
  let t s p o = Rdf.Triple.to_fact (Rdf.Triple.make s (str p) o) in
  match Random.State.int st 4 with
  | 0 -> t record "recorded_by" band
  | 1 ->
      t record "published"
        (str (if Random.State.bool st then "after_2010" else "before_2010"))
  | 2 -> t record "NME_rating" (int (1 + Random.State.int st 10))
  | _ -> t band "formed_in" (int (1960 + Random.State.int st 60))

(* --- the change stream ---------------------------------------------------

   A closed loop with one writer: batches of [size] operations; every
   [removal_every]-th batch adds half as many fresh facts and removes as
   many live ones, the others only add. The live set is tracked here, so removals
   always name a live fact and the stream is a pure function of the seed
   and the initial facts. *)

type batch = { adds : Fact.t array; removes : Fact.t array }

let is_removal b = Array.length b.removes > 0

let stream ~seed ~initial ~fresh ~batches ~size ~removal_every =
  let st = rng ~seed ~tag:4 in
  let live = Hashtbl.create (2 * Array.length initial) in
  let pool = ref (Array.make (max 16 (2 * Array.length initial)) (edge 0 0)) in
  let n = ref 0 in
  let push f =
    if not (Hashtbl.mem live f) then begin
      if !n = Array.length !pool then
        pool := Array.append !pool (Array.make !n (edge 0 0));
      Hashtbl.replace live f !n;
      !pool.(!n) <- f;
      incr n
    end
  in
  let pop i =
    let f = !pool.(i) in
    decr n;
    let last = !pool.(!n) in
    !pool.(i) <- last;
    Hashtbl.replace live last i;
    Hashtbl.remove live f;
    f
  in
  Array.iter push initial;
  List.init batches (fun k ->
      let removal = k mod removal_every = removal_every - 1 in
      let n_add = if removal then size / 2 else size in
      let adds = Array.init n_add (fun _ -> fresh st) in
      (* removals pick from the facts live before this batch's adds *)
      let removes =
        if removal then Array.init (size - n_add) (fun _ -> pop (Random.State.int st !n))
        else [||]
      in
      Array.iter push adds;
      { adds; removes })
