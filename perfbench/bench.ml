(* End-to-end and per-layer benchmark of `wdpt eval` and standing views.

   One run of one workload:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --cli PATH --work DIR
   generates the workload's inputs from the seed into DIR, checks the
   program's answers on a small instance of the same generator against the
   naive oracles, then starts one worker process (this executable with
   --worker) that measures in passes until S seconds have passed, and at
   least the workload's least number of passes. A pass sets up the store,
   times every in-process probe and runs of the CLI binary on the
   generated files, and in the first three passes replays the change
   stream. Each timed repetition follows a run of the calibration kernel
   and a [Gc.compact ()]; see [end_to_end_values] for how repetitions
   become metrics. perfbench/README.md records the design.

   With --trace 1 an untraced and a traced worker split the S seconds; the
   traced one records spans around each call the benchmark makes into the
   program, and the run prints the per-layer table and the per-layer
   metrics instead of the end-to-end ones. The last line of standard output
   is always the JSON result. *)

open Relational

let now = Unix.gettimeofday

(* ---------------------------------------------------------------------- *)
(* Workloads                                                               *)
(* ---------------------------------------------------------------------- *)

type spec = {
  name : string;
  relational : bool;  (** relational facts + pattern-tree syntax, else RDF *)
  data : int -> Fact.t array;  (** the full instance, from the seed *)
  small : int -> Fact.t array;  (** the correctness-gate instance *)
  query : string;  (** main query: cold_query_s, query_s, cli_eval_s *)
  join : string;  (** join_query_s *)
  maxq : string;  (** max_query_s (eval_max) *)
  view : string;  (** the standing view of the churn phase *)
  fresh : Random.State.t -> Fact.t;  (** stream facts *)
  churn_store : int -> Fact.t array;
      (** the churn phase runs on its own store [churn_store seed], rebuilt
          every [segment] batches so that the stream never outgrows it *)
  passes : int;  (** least number of passes in a run *)
  cli_max : bool;  (** also check `eval -m` against [maxq] (= [query]) *)
}

(* The stream: 200 batches of 40 operations, every second one carrying
   removals, so that the remove-batch p90 has ten operations beyond it. It
   is replayed in the first [replays] passes, each time from a fresh store
   rebuilt every [segment] batches; the first replay checks every
   [check_every]-th batch, and every [kernel_every]-th batch is followed by
   an untimed kernel run that gauges the host's speed during the replay. *)
let batch_size = 40
let removal_every = 2
let removal_batches = 100
let segment = 40
let replays = 3
let check_every = 200
let kernel_every = 20

(* the least length of a timed repetition of an in-process query probe *)
let min_rep_s = 0.25

let ingest =
  let q = "free (x, y, z) { S(?x), E(?x, ?y) } [ { E(?y, ?z) } ]" in
  {
    name = "ingest-200k";
    relational = true;
    data = (fun seed -> Gen.ingest_facts ~seed ~edges:200_000 ~nodes:20_000 ~sources:2_000);
    small = (fun seed -> Gen.ingest_facts ~seed ~edges:600 ~nodes:60 ~sources:6);
    query = q;
    join = "free (x) { E(?x, ?y), E(?y, ?z), E(?z, ?x) }";
    maxq = "free (x, y) { S(?x) } [ { E(?x, ?y) } ]";
    view = q;
    fresh = Gen.ingest_fresh ~nodes:400 ~sources:40 ~edges:4_000;
    churn_store = (fun seed -> Gen.ingest_facts ~seed:(seed + 1) ~edges:4_000 ~nodes:400 ~sources:40);
    passes = 4;
    cli_max = false;
  }

let figure1 =
  "SELECT ?y ?z WHERE { { ?x recorded_by ?y . ?x published after_2010 } \
   OPT { ?x NME_rating ?z } OPT { ?y formed_in ?z2 } }"

let catalog =
  {
    name = "catalog-opt";
    relational = false;
    data = (fun seed -> Gen.catalog_facts ~seed ~bands:4_000 ~records_per_band:8);
    small = (fun seed -> Gen.catalog_facts ~seed ~bands:40 ~records_per_band:8);
    query = figure1;
    join =
      "SELECT ?y ?z WHERE { ?x recorded_by ?y . ?x published after_2010 . \
       ?x NME_rating ?z }";
    maxq = figure1;
    view = figure1;
    fresh = Gen.catalog_fresh ~bands:300 ~records_per_band:8;
    churn_store = (fun seed -> Gen.catalog_facts ~seed:(seed + 1) ~bands:300 ~records_per_band:8);
    passes = 3;
    cli_max = true;
  }

let workloads = [ ingest; catalog ]

let parse_query spec src =
  let r =
    if spec.relational then Wdpt.Syntax.parse src else Rdf.Sparql.parse_and_translate src
  in
  match r with Ok p -> p | Error e -> failwith ("query: " ^ e)

let data_file spec work = Filename.concat work (if spec.relational then "data.facts" else "data.nt")
let query_file spec work = Filename.concat work (if spec.relational then "query.wdpt" else "query.sparql")

(* ---------------------------------------------------------------------- *)
(* Statistics                                                              *)
(* ---------------------------------------------------------------------- *)

let sorted l = Array.of_list (List.sort compare l)

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank; only reported where at least ten samples lie beyond it *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (int_of_float (ceil (p *. float n)) - 1))

let sum = List.fold_left ( +. ) 0.

(* ---------------------------------------------------------------------- *)
(* Worker: the measuring process                                           *)
(* ---------------------------------------------------------------------- *)

(* Lines written to stdout, read back by the parent:
     sample NAME VALUE       one timing or size sample
     count NAME VALUE        a count, summed over the run
     check 0|1 WHAT          one checked operation (1 = passed)
     span PATH DUR SELF MWORDS   one closed span (traced worker only) *)
let out = Buffer.create 65536
let emit fmt = Printf.bprintf out (fmt ^^ "\n")
let sample name v = emit "sample %s %.17g" name v
let count name v = emit "count %s %.17g" name v
let check ok what = emit "check %d %s" (if ok then 1 else 0) what

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* the CLI's relational loader, split at the layer boundaries *)
let parse_facts doc =
  List.filter_map
    (fun line ->
      let l = String.trim line in
      if l = "" || l.[0] = '#' then None
      else
        match Wdpt.Syntax.parse_fact l with
        | Ok f -> Some f
        | Error e -> failwith ("data: " ^ e))
    (String.split_on_char '\n' doc)

let load spec path =
  let doc = Span.with_ "read" (fun () -> read_file path) in
  if spec.relational then begin
    let facts = Span.with_ "syntax.parse_fact" (fun () -> parse_facts doc) in
    let db = Database.create () in
    Span.with_ "database.add" (fun () -> List.iter (Database.add db) facts);
    db
  end
  else
    let g =
      Span.with_ "rdf.graph.of_string" (fun () ->
          match Rdf.Graph.of_string doc with Ok g -> g | Error e -> failwith ("data: " ^ e))
    in
    Span.with_ "rdf.graph.database" (fun () -> Rdf.Graph.database g)

let db_of facts =
  let db = Database.create () in
  Array.iter (Database.add db) facts;
  db

(* A fixed workload independent of the program, timed before every
   repetition as the host's speed reference: ordered-map inserts, string
   hashing and a list sort; a walk along a random cycle through 32 MB
   (memory latency); a triangle count over a fixed random graph held in a
   hash set (hash probes). On the shared host this benchmark was built on,
   the program's times drift by up to 40% over minutes; this kernel's
   median follows them, the sum of the three parts better than any part
   alone. The cycle lives outside the OCaml heap, so that it neither
   counts in peak_heap_mb nor slows [Gc.compact]. *)
let chase =
  lazy
    (let n = 1 lsl 22 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     let st = Random.State.make [| 7 |] in
     (* Sattolo's shuffle: one cycle through every slot *)
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let graph =
  lazy
    (let st = Random.State.make [| 11 |] in
     let nodes = 20_000 in
     let adj = Array.make nodes [] and set = Hashtbl.create 131_072 in
     for _ = 1 to 50_000 do
       let a = Random.State.int st nodes and b = Random.State.int st nodes in
       adj.(a) <- b :: adj.(a);
       Hashtbl.replace set (a, b) ()
     done;
     (adj, set))

let kernel () =
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 15_000 do
    m := M.add ((i * 7919) land 0xFFFFF) i !m
  done;
  let h = Hashtbl.create 1024 in
  M.iter (fun k v -> Hashtbl.replace h (string_of_int k) v) !m;
  let n = List.length (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])) in
  let next = Lazy.force chase in
  let p = ref 0 in
  for _ = 1 to 60_000 do
    p := next.{!p}
  done;
  let adj, set = Lazy.force graph in
  let c = ref 0 in
  Array.iteri
    (fun x ys ->
      List.iter (fun y -> List.iter (fun z -> if Hashtbl.mem set (z, x) then incr c) adj.(y)) ys)
    adj;
  n + !p + !c

let run_kernel name =
  Span.with_ "bench.kernel" (fun () ->
      let t0 = now () in
      ignore (Sys.opaque_identity (kernel ()));
      let dt = now () -. t0 in
      sample name dt;
      dt)

(* Every timed repetition follows a kernel run and a [Gc.compact ()].
   [kernels] holds each kernel time, [reps] each repetition's metric,
   seconds and the index of the kernel run before it, latest first. *)
let kernels = ref []
let n_kernels = ref 0
let reps = ref []

let gauge () =
  kernels := run_kernel "kernel_s" :: !kernels;
  incr n_kernels

(* time [n] back-to-back calls of [f] as one repetition of [metric] (if
   any), in seconds per call; the span (traced worker) covers exactly the
   timed interval *)
let timed ?metric ?(n = 1) name f =
  gauge ();
  Span.with_ "bench.gc" Gc.compact;
  let t0 = now () in
  let r =
    Span.with_ ("probe." ^ name) (fun () ->
        for _ = 2 to n do
          ignore (Sys.opaque_identity (f ()))
        done;
        f ())
  in
  let dt = (now () -. t0) /. float n in
  Option.iter (fun m -> reps := (m, dt, !n_kernels - 1) :: !reps) metric;
  (dt, r)

(* a group of repetitions of [f] (which returns its seconds): at least
   [least], more while the group has spent under [budget] seconds, at most
   [cap] *)
let group ?(least = 1) ?(budget = 0.5) ?(cap = 3) f =
  let spent = ref 0. and n = ref 0 in
  while !n < least || (!spent < budget && !n < cap) do
    spent := !spent +. f ();
    incr n
  done

(* Each repetition as a sample of its metric, and as a sample of the
   metric's "ratio." twin: its time over the mean of the kernel times just
   before and just after it (the next repetition's, or a last kernel run).
   The host's speed changes within seconds, so the kernels that bracket a
   repetition gauge it better than the run's median kernel does. *)
let emit_reps () =
  let ks = Array.of_list (List.rev (run_kernel "kernel_s" :: !kernels)) in
  List.iter
    (fun (m, dt, g) ->
      sample m dt;
      sample ("ratio." ^ m) (dt /. ((ks.(g) +. ks.(g + 1)) /. 2.)))
    !reps

(* Apply one batch (removals first: they name facts live before the
   batch, the generator's own order) and refresh the view. *)
let apply_batch db view (b : Gen.batch) kind =
  Span.with_ ("batch." ^ kind) (fun () ->
      Span.with_ "database.apply" (fun () ->
          Span.with_ "database.remove" (fun () -> Array.iter (Database.remove db) b.removes);
          Span.with_ "database.add" (fun () -> Array.iter (Database.add db) b.adds));
      Span.with_ "standing.refresh" (fun () -> Wdpt.Standing.refresh view))

(* the untimed check of one batch: the view against a fresh evaluation of
   a copy, and the batch's events replayed over the answers before it *)
let check_batch db view ~before_eval ~before_max events =
  Span.with_ "bench.check" (fun () ->
      let copy = Database.copy db in
      let p = Wdpt.Standing.query view in
      let after_eval = Wdpt.Semantics.eval copy p in
      let after_max = Wdpt.Semantics.eval_max copy p in
      check
        (Mapping.Set.equal (Wdpt.Standing.answers view) after_eval
        && Mapping.Set.equal (Wdpt.Standing.maximal_answers view) after_max
        && Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval ~after_max
             events
           = [])
        "standing view = fresh eval/eval_max, events replay")

(* One replay of the stream. [segments seg] gives the store and registered
   view segment [seg] runs on; each segment's stream starts from
   [initial]. *)
let churn_phase spec ~seed ~traced ~checks ~initial ~segments =
  let recomputed = ref 0 and dirty = ref 0 and changed = ref 0 in
  for seg = 0 to (removal_batches * removal_every / segment) - 1 do
    let db, view = segments seg in
    let stream =
      Span.with_ "bench.gen" (fun () ->
          Gen.stream ~seed:(seed + (7919 * seg)) ~initial ~fresh:spec.fresh
            ~batches:segment ~size:batch_size ~removal_every)
    in
    List.iteri
      (fun k (b : Gen.batch) ->
        let i = (seg * segment) + k in
        let before =
          if checks && (i + 1) mod check_every = 0 then
            Some (Wdpt.Standing.answers view, Wdpt.Standing.maximal_answers view)
          else None
        in
        let kind = if Gen.is_removal b then "remove" else "add" in
        let t0 = now () in
        match apply_batch db view b kind with
        | exception e -> check false ("batch: " ^ Printexc.to_string e)
        | events ->
            sample (Printf.sprintf "%s_batch_ms/%d" kind i) ((now () -. t0) *. 1000.);
            check true "batch";
            if traced then count "removed_facts" (float (Array.length b.removes));
            if (i + 1) mod kernel_every = 0 then ignore (run_kernel "churn_kernel_s");
            let st = Wdpt.Standing.stats view in
            recomputed := !recomputed + st.last_recomputed;
            dirty := !dirty + st.last_dirty;
            changed := !changed + st.last_batch_added + st.last_batch_removed;
            Option.iter
              (fun (before_eval, before_max) ->
                check_batch db view ~before_eval ~before_max events)
              before)
      stream
  done;
  count "recomputed" (float !recomputed);
  count "dirty" (float !dirty);
  count "net_changed" (float !changed)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* spawn the CLI and wait for it; stdout to [stdout_to] (a path) or
   /dev/null *)
let run_cli ~cli ~args ~stdout_to =
  let null = devnull () in
  let fd =
    match stdout_to with
    | None -> null
    | Some path -> Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let t0 = now () in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) null fd null in
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  if fd <> null then Unix.close fd;
  Unix.close null;
  (dt, status = Unix.WEXITED 0)

let cli_count path =
  try
    let ic = open_in path in
    let l = input_line ic in
    close_in ic;
    Scanf.sscanf l "%d answer(s)" Option.some
  with _ -> None

let cli_args spec work ~maximal =
  [ "eval" ] @ (if spec.relational then [ "-r" ] else []) @ (if maximal then [ "-m" ] else [])
  @ [ query_file spec work; "-d"; data_file spec work ]

(* Passes until [seconds] have passed since the worker started, at least
   [passes] of them; the first [n_replays] passes replay the stream. A pass
   is one set-up, then groups of repetitions of each probe on that store
   (cold, warm and max at least twice, join and the CLI at least once, each
   repeated while its group has spent under 0.5 s, 1 s for the CLI, at most
   3 times), the layer probes (traced worker), then the stream replay. *)
let worker spec ~seed ~work ~cli ~seconds ~passes ~replays:n_replays ~traced =
  Span.enabled := traced;
  ignore (Lazy.force chase, Lazy.force graph);
  let t_start = now () in
  let q = parse_query spec spec.query
  and j = parse_query spec spec.join
  and m = parse_query spec spec.maxq in
  let root_atoms = Wdpt.Pattern_tree.atoms q (Wdpt.Pattern_tree.root q) in
  (* the answer counts every repetition must return *)
  let n_q = ref (-1) and n_j = ref (-1) and n_m = ref (-1) in
  let agree r n what =
    if !r < 0 then r := n;
    check (n > 0 && n = !r) what
  in
  (* calls per repetition of each in-process query probe, so that a
     repetition lasts at least [min_rep_s] (set by an untimed warm-up call
     in the first pass) *)
  let calls = Hashtbl.create 4 in
  let n_of name = Option.value ~default:1 (Hashtbl.find_opt calls name) in
  let warm_up name f =
    let t0 = now () in
    ignore (Sys.opaque_identity (Span.with_ "bench.warm_up" f));
    Hashtbl.replace calls name (max 1 (int_of_float (ceil (min_rep_s /. (now () -. t0)))))
  in
  (* set-up: the user's load path *)
  let setup () = snd (timed ~metric:"setup_s" "setup" (fun () -> load spec (data_file spec work))) in
  let cold db =
    let dt, a =
      timed ~metric:"cold_query_s" ~n:(n_of "cold") "cold" (fun () ->
          Span.with_ "database.clear_cache" (fun () -> Database.clear_cache db);
          if traced then
            ignore
              (Span.with_ "engine.compile" (fun () ->
                   Engine.compile db root_atoms ~init:Mapping.empty));
          Span.with_ "semantics.eval" (fun () -> Wdpt.Semantics.eval db q))
    in
    agree n_q (Mapping.Set.cardinal a) "cold eval count";
    dt
  in
  let answers = ref Mapping.Set.empty in
  let warm db =
    let dt, a =
      timed ~metric:"query_s" ~n:(n_of "warm") "warm" (fun () ->
          Span.with_ "semantics.eval" (fun () -> Wdpt.Semantics.eval db q))
    in
    agree n_q (Mapping.Set.cardinal a) "warm eval count";
    answers := a;
    dt
  in
  let join db =
    let dt, a =
      timed ~metric:"join_query_s" ~n:(n_of "join") "join" (fun () ->
          Span.with_ "semantics.eval" (fun () -> Wdpt.Semantics.eval db j))
    in
    agree n_j (Mapping.Set.cardinal a) "join eval count";
    dt
  in
  let maxp db ~first =
    let counted = ref (not first) in
    let dt, a =
      timed ~metric:"max_query_s" ~n:(n_of "max") "max" (fun () ->
          if traced then begin
            let all = Span.with_ "semantics.eval" (fun () -> Wdpt.Semantics.eval db m) in
            let kept =
              Span.with_ "mapping.maximal_elements" (fun () ->
                  Mapping.maximal_elements (Mapping.Set.elements all))
            in
            if not !counted then begin
              counted := true;
              count "max_eval_answers" (float (Mapping.Set.cardinal all));
              count "max_kept" (float (List.length kept))
            end;
            Mapping.Set.of_list kept
          end
          else Wdpt.Semantics.eval_max db m)
    in
    agree n_m (Mapping.Set.cardinal a) "eval_max count";
    if first then
      Span.with_ "bench.check" (fun () ->
          let all = Wdpt.Semantics.eval db m in
          check (Mapping.Set.subset a all) "eval_max within eval");
    dt
  in
  (* stdout to a file, so that every run's printed count is checked *)
  let run_cli_timed () =
    let out = Filename.concat work "cli.out" in
    let dt, ok =
      timed ~metric:"cli_eval_s" "cli" (fun () ->
          snd (run_cli ~cli ~args:(cli_args spec work ~maximal:false) ~stdout_to:(Some out)))
    in
    check (ok && cli_count out = Some !n_q) "cli eval exited 0 and printed the eval count";
    dt
  in
  (* layer probes: decompositions that the end-to-end probes do not run,
     kept out of the tracing-overhead comparison *)
  let layer db ~first =
    ignore
      (timed "layer" (fun () ->
           ignore
             (Span.with_ "semantics.maximal_homomorphisms" (fun () ->
                  Wdpt.Semantics.maximal_homomorphisms db q));
           (* the root body: the full-tree body of the Figure-1 query gets
              a cartesian plan (minutes) *)
           let p =
             Span.with_ "engine.compile" (fun () -> Engine.compile db root_atoms ~init:Mapping.empty)
           in
           let n = ref 0 in
           Span.with_ "engine.iter_envs" (fun () -> Engine.iter_envs p (fun _ -> incr n));
           Span.with_ "engine.mapping_of_env" (fun () ->
               Engine.iter_envs p (fun env -> ignore (Engine.mapping_of_env p env)));
           let jb = Cq.Query.body (Wdpt.Pattern_tree.q_full j) in
           let pj = Span.with_ "engine.compile" (fun () -> Engine.compile db jb ~init:Mapping.empty) in
           let homs = Span.with_ "engine.count_envs" (fun () -> Engine.count_envs pj) in
           let fb = Engine.Inspect.feedback pj in
           let probed =
             Array.fold_left (fun acc a -> acc + a.Engine.Inspect.f_probed) 0 fb.f_atoms
           in
           if first then begin
             count "join_homs" (float homs);
             count "join_rows_probed" (float probed /. float (Stdlib.max 1 fb.f_runs))
           end;
           let buf = Buffer.create (1 lsl 20) in
           let ppf = Format.formatter_of_buffer buf in
           Span.with_ "print" (fun () ->
               Mapping.Set.iter (fun h -> Format.fprintf ppf "%a@." Mapping.pp h) !answers)))
  in
  (* one replay of the stream, from a fresh churn store *)
  let replay k =
    Span.with_ "bench.gc" Gc.compact;
    let initial = spec.churn_store seed in
    let p = parse_query spec spec.view in
    let segments seg =
      let db = Span.with_ "churn.load" (fun () -> db_of initial) in
      let name = if seg = 0 then "standing.register" else "churn.reregister" in
      (db, Span.with_ name (fun () -> Wdpt.Standing.register db p))
    in
    Span.with_ "probe.churn" (fun () ->
        churn_phase spec ~seed ~traced ~checks:(k = 0) ~initial ~segments)
  in
  let rec pass k =
    let t0 = now () in
    let db = setup () in
    if k = 0 then begin
      count "setup_facts" (float (Database.size db));
      warm_up "cold" (fun () ->
          Database.clear_cache db;
          Wdpt.Semantics.eval db q);
      warm_up "warm" (fun () -> Wdpt.Semantics.eval db q);
      warm_up "join" (fun () -> Wdpt.Semantics.eval db j);
      warm_up "max" (fun () -> Wdpt.Semantics.eval_max db m)
    end;
    group ~least:2 (fun () -> cold db);
    group ~least:2 (fun () -> warm db);
    group (fun () -> join db);
    let first = ref (k = 0) in
    group ~least:2 (fun () ->
        let dt = maxp db ~first:!first in
        first := false;
        dt);
    group ~budget:1.0 run_cli_timed;
    if traced then layer db ~first:(k = 0);
    answers := Mapping.Set.empty;
    let t_probes = now () -. t0 in
    let t_replay =
      if k < n_replays then begin
        (* the kernel after the last group, before the replay *)
        gauge ();
        let t1 = now () in
        replay k;
        now () -. t1
      end
      else 0.
    in
    (* the next pass, estimated from this one *)
    let next = t_probes +. if k + 1 < n_replays then t_replay else 0. in
    let ends_by limit = now () +. next <= t_start +. limit in
    (* the least number of passes gives way only on a host so slow that it
       would take more than twice the run's time *)
    if (k + 1 < passes && ends_by (2. *. seconds)) || ends_by seconds then pass (k + 1)
  in
  Span.with_ "round" (fun () -> pass 0);
  emit_reps ();
  count "answers" (float !n_q);
  count "join_answers" (float !n_j);
  count "max_answers" (float !n_m);
  let st = Gc.quick_stat () in
  sample "peak_heap_mb" (float (st.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  (* spans: self time = duration minus the children's durations *)
  let spans = Span.all () in
  let child = Array.make (Array.length spans) 0. in
  Array.iter (fun s -> if s.Span.parent >= 0 then child.(s.parent) <- child.(s.parent) +. Span.duration s) spans;
  Array.iteri
    (fun i s ->
      let parent = if s.Span.parent >= 0 then spans.(s.parent).Span.name else "-" in
      emit "span %s/%s %.17g %.17g %.17g" parent s.name (Span.duration s)
        (Span.duration s -. child.(i)) (Span.mwords s))
    spans;
  print_string (Buffer.contents out)

(* ---------------------------------------------------------------------- *)
(* Parent                                                                  *)
(* ---------------------------------------------------------------------- *)

type results = {
  samples : (string, float list) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
  spans : (string, (float * float * float) list) Hashtbl.t;  (** path -> (dur, self, mwords) *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fresh_results () =
  { samples = Hashtbl.create 16; counts = Hashtbl.create 16; spans = Hashtbl.create 64;
    attempted = 0; failed = 0; failures = [] }

let add_sample r name v =
  Hashtbl.replace r.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt r.samples name))

let samples r name = Option.value ~default:[] (Hashtbl.find_opt r.samples name)
let count_of r name = Option.value ~default:0. (Hashtbl.find_opt r.counts name)

let note r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.failures < 10 then r.failures <- what :: r.failures
  end

let absorb r line =
  match String.split_on_char ' ' line with
  | [ "sample"; name; v ] -> add_sample r name (float_of_string v)
  | [ "count"; name; v ] -> Hashtbl.replace r.counts name (count_of r name +. float_of_string v)
  | "check" :: ok :: what -> note r (ok = "1") (String.concat " " what)
  | [ "span"; path; d; s; w ] ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt r.spans path) in
      Hashtbl.replace r.spans path
        ((float_of_string d, float_of_string s, float_of_string w) :: prev)
  | _ -> ()

(* run one worker to its end, its output into [r] *)
let run_worker spec ~seed ~work ~cli ~seconds ~passes ~replays ~traced r =
  let args =
    [| Sys.executable_name; "--worker"; "--workload"; spec.name; "--seed"; string_of_int seed;
       "--work"; Filename.dirname work; "--cli"; cli; "--seconds"; Printf.sprintf "%g" seconds;
       "--passes"; string_of_int passes; "--replays"; string_of_int replays;
       "--traced"; (if traced then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  (try
     while true do
       absorb r (input_line ic)
     done
   with End_of_file -> ());
  note r (Unix.close_process_in ic = Unix.WEXITED 0) "worker exited cleanly"

(* the correctness gate: a small instance of the same generator and seed *)
let gate spec ~seed r =
  let db = db_of (spec.small seed) in
  let same what a b = note r (Mapping.Set.equal a b) what in
  let q = parse_query spec spec.query and j = parse_query spec spec.join
  and m = parse_query spec spec.maxq and v = parse_query spec spec.view in
  same "gate: eval = eval_naive (query)" (Wdpt.Semantics.eval db q) (Wdpt.Semantics.eval_naive db q);
  same "gate: eval = Cq.Eval.Naive (join)" (Wdpt.Semantics.eval db j)
    (Cq.Eval.Naive.answers db
       (Cq.Query.make ~head:(Wdpt.Pattern_tree.free j)
          ~body:(Cq.Query.body (Wdpt.Pattern_tree.q_full j))));
  same "gate: eval_max = maximal naive answers (max)" (Wdpt.Semantics.eval_max db m)
    (Mapping.Set.of_list
       (Mapping.maximal_elements (Mapping.Set.elements (Wdpt.Semantics.eval_naive db m))));
  (* a short stream on the small store, every batch checked *)
  let view = Wdpt.Standing.register db v in
  let initial = spec.small seed in
  List.iter
    (fun (b : Gen.batch) ->
      let before_eval = Wdpt.Semantics.eval_naive db v in
      let before_max =
        Mapping.Set.of_list (Mapping.maximal_elements (Mapping.Set.elements before_eval))
      in
      let events = apply_batch db view b "gate" in
      let after_eval = Wdpt.Semantics.eval_naive db v in
      let after_max =
        Mapping.Set.of_list (Mapping.maximal_elements (Mapping.Set.elements after_eval))
      in
      note r
        (Mapping.Set.equal (Wdpt.Standing.answers view) after_eval
        && Mapping.Set.equal (Wdpt.Standing.maximal_answers view) after_max
        && Analysis.Delta_audit.check_events ~before_eval ~before_max ~after_eval ~after_max
             events
           = [])
        "gate: standing view = eval_naive after batch")
    (Gen.stream ~seed ~initial ~fresh:spec.fresh ~batches:24 ~size:8 ~removal_every:4)

(* --- output -------------------------------------------------------------- *)

let end_to_end =
  [ ("setup_s", "s"); ("cli_eval_s", "s"); ("cold_query_s", "s"); ("query_s", "s");
    ("join_query_s", "s"); ("max_query_s", "s"); ("add_batch_p50_ms", "ms");
    ("add_batch_p90_ms", "ms"); ("remove_batch_p50_ms", "ms"); ("remove_batch_p90_ms", "ms");
    ("churn_ops_per_s", "ops/s"); ("peak_heap_mb", "MB") ]

(* On a shared 2-vCPU Intel Xeon host the same operation varies by 15-20%
   from one repetition to the next, and the whole host drifts by up to 40%
   over minutes. Every timing is therefore measured against [kernel], a
   fixed program-independent workload whose time follows the host's:

   - a query metric (and setup_s, cli_eval_s) is the median over its
     repetitions of the time over the bracketing kernel times (the
     "ratio." samples), times [kernel_ref_s];
   - a churn metric is taken over the stream's batches (p50/p90 of each
     batch's fastest replay; ops/s over their sum) and scaled by
     [kernel_ref_s] over the median of the kernel runs between the
     replay's batches.

   The run prints the raw medians beside them. *)
let fastest l = List.fold_left Float.min infinity l

let per_op r prefix =
  let pre = prefix ^ "/" in
  let n = String.length pre in
  Hashtbl.fold
    (fun name l acc ->
      if String.length name > n && String.sub name 0 n = pre then fastest l :: acc else acc)
    r.samples []

(* [kernel]'s median time on the reference host (the 2-vCPU Xeon above, in
   a fast minute) *)
let kernel_ref_s = 0.050

(* [reference_speed r]: this run's host speed against the reference (< 1
   when the host ran slow) *)
let reference_speed r = kernel_ref_s /. median (samples r "kernel_s")

let churn_metrics r =
  let adds = per_op r "add_batch_ms" and removes = per_op r "remove_batch_ms" in
  let p90 l = if List.length l >= 100 then percentile 0.9 l else nan in
  let ops = float (batch_size * (List.length adds + List.length removes)) in
  [ median adds; p90 adds; median removes; p90 removes;
    ops /. ((sum adds +. sum removes) /. 1000.) ]

let query_metrics = [ "setup_s"; "cli_eval_s"; "cold_query_s"; "query_s"; "join_query_s"; "max_query_s" ]

let peak_heap r = List.fold_left Float.max 0. (samples r "peak_heap_mb")

let end_to_end_raw r =
  List.map (fun m -> median (samples r m)) query_metrics @ churn_metrics r @ [ peak_heap r ]

let end_to_end_values r =
  let k = kernel_ref_s /. median (samples r "churn_kernel_s") in
  List.map (fun m -> median (samples r ("ratio." ^ m)) *. kernel_ref_s) query_metrics
  (* the fifth churn metric, churn_ops_per_s, is a rate: it scales the other way *)
  @ List.mapi (fun i v -> if i = 4 then v /. k else v *. k) (churn_metrics r)
  @ [ peak_heap r ]

let per_layer =
  [ ("syntax.parse_fact.s", "s"); ("syntax.parse_fact.mwords", "Mwords");
    ("rdf.graph.of_string.s", "s"); ("rdf.graph.database.s", "s");
    ("database.add.s", "s"); ("database.add.us_per_fact", "us");
    ("database.add.mwords", "Mwords"); ("database.remove.us_per_fact", "us");
    ("engine.compile.s", "s"); ("engine.compile.mwords", "Mwords");
    ("engine.count_envs.s", "s"); ("engine.rows_probed_per_answer", "ratio");
    ("engine.mapping_of_env.s", "s"); ("semantics.maximal_homomorphisms.s", "s");
    ("semantics.maximal_homomorphisms.mwords", "Mwords"); ("semantics.project.s", "s");
    ("mapping.maximal_elements.s", "s"); ("mapping.maximal_elements.kept_ratio", "ratio");
    ("print.s", "s"); ("cli.unaccounted.s", "s"); ("standing.register.s", "s");
    ("standing.refresh.add_ms", "ms"); ("standing.refresh.remove_ms", "ms");
    ("database.apply.ms", "ms"); ("standing.recomputed_per_change", "ratio");
    ("standing.dirty_per_change", "ratio"); ("trace.overhead_pct", "%");
    ("trace.unaccounted_pct", "%"); ("host.reference_speed", "ratio") ]

let span_list r path = Option.value ~default:[] (Hashtbl.find_opt r.spans path)
let span_durs r path = List.map (fun (d, _, _) -> d) (span_list r path)
let span_mwords r path = List.map (fun (_, _, w) -> w) (span_list r path)

(* spans of [name] under any parent *)
let spans_named r name =
  Hashtbl.fold
    (fun path l acc ->
      match String.rindex_opt path '/' with
      | Some i when String.sub path (i + 1) (String.length path - i - 1) = name -> l @ acc
      | _ -> acc)
    r.spans []

let ratio a b = if b = 0. then 0. else a /. b

let per_layer_values r ~untraced =
  let md path = median (span_durs r path) and mw path = median (span_mwords r path) in
  let durs_of l = List.map (fun (d, _, _) -> d) l in
  let add_s = md "probe.setup/database.add" in
  let removes = sum (durs_of (span_list r "database.apply/database.remove")) in
  let in_process =
    median (samples r "setup_s") +. median (samples r "cold_query_s") +. md "probe.layer/print"
  in
  let e2e = [ "setup_s"; "cold_query_s"; "query_s"; "join_query_s"; "max_query_s" ] in
  (* against the kernel, so that the host's drift between the two workers
     does not read as tracing overhead *)
  let normalised res = sum (List.map (fun n -> median (samples res ("ratio." ^ n))) e2e) in
  let traced_sum = normalised r and untraced_sum = normalised untraced in
  let rounds = span_list r "-/round" in
  let round_self = sum (List.map (fun (_, s, _) -> s) rounds) in
  let round_dur = sum (durs_of rounds) in
  [ md "probe.setup/syntax.parse_fact"; mw "probe.setup/syntax.parse_fact";
    md "probe.setup/rdf.graph.of_string"; md "probe.setup/rdf.graph.database";
    add_s; ratio add_s (count_of r "setup_facts") *. 1e6; mw "probe.setup/database.add";
    ratio removes (count_of r "removed_facts") *. 1e6;
    md "probe.cold/engine.compile"; mw "probe.cold/engine.compile";
    md "probe.layer/engine.count_envs";
    ratio (count_of r "join_rows_probed") (count_of r "join_homs");
    md "probe.layer/engine.mapping_of_env" -. md "probe.layer/engine.iter_envs";
    md "probe.layer/semantics.maximal_homomorphisms"; mw "probe.layer/semantics.maximal_homomorphisms";
    md "probe.warm/semantics.eval" -. md "probe.layer/semantics.maximal_homomorphisms";
    md "probe.max/mapping.maximal_elements";
    ratio (count_of r "max_kept") (count_of r "max_eval_answers");
    md "probe.layer/print";
    median (samples r "cli_eval_s") -. in_process;
    median (durs_of (spans_named r "standing.register"));
    median (span_durs r "batch.add/standing.refresh") *. 1000.;
    median (span_durs r "batch.remove/standing.refresh") *. 1000.;
    median (durs_of (spans_named r "database.apply")) *. 1000.;
    ratio (count_of r "recomputed") (count_of r "net_changed");
    ratio (count_of r "dirty") (count_of r "net_changed");
    100. *. ratio (traced_sum -. untraced_sum) untraced_sum;
    100. *. ratio round_self round_dur;
    reference_speed r ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_json r names values =
  let metrics =
    List.map2
      (fun (n, u) v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      names values
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

(* the per-layer table of the traced worker: self time per span name *)
let print_layer_table spec r =
  let by_name = Hashtbl.create 32 in
  Hashtbl.iter
    (fun path l ->
      let name =
        match String.rindex_opt path '/' with
        | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        | None -> path
      in
      let n, self, w = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name
        (List.fold_left (fun (n, s, w) (_, s', w') -> (n + 1, s +. s', w +. w')) (n, self, w) l))
    r.spans;
  let wall = sum (span_durs r "-/round") in
  let rows = List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) (List.of_seq (Hashtbl.to_seq by_name)) in
  Printf.printf "\nper-layer table, %s (%.3f s traced wall)\n" spec.name wall;
  Printf.printf "  %-36s %7s %10s %7s %12s\n" "span" "calls" "self s" "share" "Mwords";
  let layers = ref 0. in
  List.iter
    (fun (name, (n, self, w)) ->
      if name <> "round" then layers := !layers +. self;
      Printf.printf "  %-36s %7d %10.4f %6.2f%% %12.3f\n" name n self (100. *. ratio self wall) w)
    rows;
  Printf.printf "  layer self times sum to %.4f s = %.2f%% of traced wall (unattributed %.2f%%)\n"
    !layers (100. *. ratio !layers wall) (100. *. ratio (wall -. !layers) wall);
  Printf.printf "  counts: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v)
          (List.sort compare (List.of_seq (Hashtbl.to_seq r.counts)))))

let engine_config () =
  Printf.sprintf "domains=%d batched=%b checked=%b optimize=%b adapt=%b"
    (Engine.Parallel.domains ()) (Engine.batched_enabled ()) (Engine.checked_enabled ())
    (Engine.optimize_enabled ()) (Engine.adapt_enabled ())

(* Refuse to time a non-default engine: a stray WDPT_ENGINE_* / WDPT_DELTA_*
   variable would silently measure a different program. *)
let config_guard () =
  let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let stray =
    List.filter
      (fun kv -> prefixed "WDPT_ENGINE_" kv || prefixed "WDPT_DELTA_" kv)
      (Array.to_list (Unix.environment ()))
  in
  let default =
    Engine.Parallel.domains () = 1 && Engine.batched_enabled ()
    && (not (Engine.checked_enabled ())) && Engine.optimize_enabled ()
    && not (Engine.adapt_enabled ())
  in
  if stray <> [] || not default then begin
    Printf.eprintf "perfbench: refusing to time a non-default engine (%s; %s)\n"
      (engine_config ()) (String.concat " " stray);
    exit 2
  end

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let parent spec ~seed ~seconds ~trace ~cli ~work:base =
  let work = Filename.concat base spec.name in
  mkdir_p work;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\nengine: %s\n%!" spec.name seed
    seconds trace (engine_config ());
  let r = fresh_results () and untraced = fresh_results () in
  let t_gen = now () in
  let data = spec.data seed in
  (if spec.relational then Gen.write_lines (data_file spec work) Gen.fact_line data
   else Gen.write_lines (data_file spec work) Gen.triple_line data);
  Out_channel.with_open_bin (query_file spec work) (fun oc -> output_string oc spec.query);
  Printf.printf "generated %d facts in %.2f s\n%!" (Array.length data) (now () -. t_gen);
  gate spec ~seed r;
  (* the timed CLI runs check `eval`'s printed count; one untimed run
     checks `eval -m`'s *)
  let cli_max =
    if spec.cli_max then begin
      let out_path = Filename.concat work "cli.out" in
      let _, ok = run_cli ~cli ~args:(cli_args spec work ~maximal:true) ~stdout_to:(Some out_path) in
      if ok then cli_count out_path else None
    end
    else None
  in
  let t_start = now () in
  let worker_run = run_worker spec ~seed ~work ~cli in
  if trace then begin
    (* the untraced worker only feeds the overhead baseline; its checks
       still count *)
    worker_run ~seconds:(seconds /. 2.) ~passes:2 ~replays:0 ~traced:false untraced;
    worker_run ~seconds:(seconds /. 2.) ~passes:2 ~replays:1 ~traced:true r;
    r.attempted <- r.attempted + untraced.attempted;
    r.failed <- r.failed + untraced.failed;
    r.failures <- untraced.failures @ r.failures;
    List.iter
      (fun n -> note r (count_of r n = count_of untraced n) (n ^ " equal in both workers"))
      [ "answers"; "join_answers"; "max_answers" ]
  end
  else worker_run ~seconds ~passes:spec.passes ~replays ~traced:false r;
  let first name = int_of_float (count_of r name) in
  if spec.cli_max then note r (cli_max = Some (first "max_answers")) "cli -m count = eval_max count";
  Printf.printf "measured in %.1f s; answers=%d join=%d max=%d; %d/%d checks failed%s\n"
    (now () -. t_start) (first "answers") (first "join_answers") (first "max_answers")
    r.failed r.attempted
    (if r.failures = [] then "" else " (" ^ String.concat "; " r.failures ^ ")");
  let sizes =
    List.map (fun (n, k) -> Printf.sprintf "%s=%d" n (List.length (samples r k)))
      [ ("setup", "setup_s"); ("cli", "cli_eval_s"); ("cold", "cold_query_s"); ("warm", "query_s");
        ("join", "join_query_s"); ("max", "max_query_s"); ("kernel", "kernel_s") ]
    @ List.map (fun k -> Printf.sprintf "%s-ops=%d" k (List.length (per_op r (k ^ "_batch_ms"))))
        [ "add"; "remove" ]
  in
  Printf.printf "samples: %s\n" (String.concat " " sizes);
  if trace then begin
    print_layer_table spec r;
    let values = per_layer_values r ~untraced in
    List.iter2 (fun (n, u) v -> Printf.printf "  %-40s %14.6g %s\n" n v u) per_layer values;
    print_json r per_layer values
  end
  else begin
    let values = end_to_end_values r in
    Printf.printf "host speed: kernel median %.4f s (%.4f s in the replays), reference %.4f s\n"
      (median (samples r "kernel_s")) (median (samples r "churn_kernel_s")) kernel_ref_s;
    List.iter2
      (fun ((n, u), v) raw -> Printf.printf "  %-20s %14.6g %s  (raw %.6g)\n" n v u raw)
      (List.combine end_to_end values) (end_to_end_raw r);
    print_json r end_to_end values
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0
  and cli = ref "" and work = ref "perfbench/_work" and is_worker = ref false and traced = ref 0
  and passes = ref 1 and n_replays = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH to the built wdpt binary");
      ("--work", Arg.Set_string work, "DIR for generated inputs");
      ("--worker", Arg.Set is_worker, " (internal) run the measuring worker");
      ("--traced", Arg.Set_int traced, "0|1 (internal)");
      ("--passes", Arg.Set_int passes, "N (internal) least number of passes");
      ("--replays", Arg.Set_int n_replays, "N (internal) passes that replay the stream") ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH";
  config_guard ();
  match List.find_opt (fun s -> s.name = !workload) workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun s -> s.name) workloads));
      exit 2
  | Some _ when !cli = "" || not (Sys.file_exists !cli) ->
      prerr_endline "perfbench: --cli must name the built wdpt binary";
      exit 2
  | Some spec ->
      if !is_worker then
        worker spec ~seed:!seed ~work:(Filename.concat !work spec.name) ~cli:!cli
          ~seconds:!seconds ~passes:!passes ~replays:!n_replays ~traced:(!traced = 1)
      else parent spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~cli:!cli ~work:!work
