(* The vectorized (batched) interpreter: the morsel-skew regression (a fat
   top-level relation must split into capped morsels, not 4*pool static
   slices), batch-edge geometry (candidate ranges smaller than a morsel
   group, survivor masks going all-zero mid-instruction, morsel boundaries
   inside OPT branches), paging parity on the batched streamed path, morsel
   configuration clamping, the low-memory fallback's order, and qcheck
   properties pinning batched = scalar enumeration order (env for env) and
   answers at both semantics levels, and a deterministic batched
   enumeration order across pool sizes. *)

open Relational
open Helpers
module P = Engine.Parallel
module I = Engine.Inspect

(* every test restores the ambient engine configuration, whatever happens
   (the suite may itself run under WDPT_ENGINE_DOMAINS / _MORSEL) *)
let with_engine ?batched ?domains ?min_rows ?morsel f =
  let b0 = Engine.batched_enabled () in
  let d0 = P.domains () and m0 = P.min_rows () and g0 = P.morsel_rows () in
  Option.iter Engine.set_batched batched;
  Option.iter P.set_domains domains;
  Option.iter P.set_min_rows min_rows;
  Option.iter P.set_morsel_rows morsel;
  Fun.protect
    ~finally:(fun () ->
      Engine.set_batched b0;
      P.set_domains d0;
      P.set_min_rows m0;
      P.set_morsel_rows g0)
    f

let envs_of plan =
  let out = ref [] in
  Engine.iter_envs plan (fun env -> out := Array.copy env :: !out);
  List.rev !out

(* ---- morsel-skew regression --------------------------------------------- *)

(* One fat relation: 20000 top-level candidate rows. The pre-morsel geometry
   cut 4*pool static slices — 2500 rows each at pool 2, so one straggler
   domain could sit on a quarter of the work. Morsels cap every chunk at
   morsel_rows, splitting the fat range into 20 slices drained from the
   shared counter. *)
let chain_db_40 () = db_of_edges (List.init 40 (fun i -> (i, i + 1)))

let test_morsel_skew () =
  let db = db_of_edges (List.init 20000 (fun i -> (i, i + 1))) in
  let plan = Engine.compile db [ e "x" "y" ] ~init:Mapping.empty in
  with_engine ~domains:2 ~min_rows:1 ~morsel:1024 (fun () ->
      let v = I.par plan in
      check_bool "parallel" true (not v.I.pv_sequential);
      check_int "morsel count pinned" 20 (Array.length v.I.pv_chunks);
      Array.iter
        (fun (lo, hi) ->
          check_bool "chunk within the morsel cap" true (hi - lo <= 1024))
        v.I.pv_chunks;
      check_bool "audits clean (incl. E016)" true
        (Analysis.Par_audit.audit_view v = []);
      check_int "all rows enumerated" 20000 (Engine.count_envs plan));
  (* small regions still split into ~4 waves per domain below the cap *)
  let small = Engine.compile (chain_db_40 ()) [ e "x" "y" ] ~init:Mapping.empty in
  with_engine ~domains:2 ~min_rows:1 ~morsel:1024 (fun () ->
      let v = I.par small in
      check_bool "small region still chunked" true
        (Array.length v.I.pv_chunks > 1))

(* ---- morsel configuration ------------------------------------------------ *)

let test_morsel_config () =
  with_engine (fun () ->
      P.set_morsel_rows 0;
      check_int "0 clamps to 1" 1 (P.morsel_rows ());
      P.set_morsel_rows (-5);
      check_int "negative clamps to 1" 1 (P.morsel_rows ());
      P.set_morsel_rows (1 lsl 30);
      check_int "oversized clamps to the cap" (1 lsl 20) (P.morsel_rows ());
      P.set_morsel_rows 256;
      check_int "in-range value kept" 256 (P.morsel_rows ()));
  (* the batched toggle round-trips *)
  with_engine ~batched:false (fun () ->
      check_bool "toggle off" false (Engine.batched_enabled ()));
  with_engine ~batched:true (fun () ->
      check_bool "toggle on" true (Engine.batched_enabled ()))

(* ---- batch-edge geometry ------------------------------------------------- *)

let test_batch_edges () =
  (* candidate range far smaller than the morsel group: one ragged batch *)
  let db = db_of_edges [ (1, 2); (2, 3) ] in
  let plan = Engine.compile db [ e "x" "y"; e "y" "z" ] ~init:Mapping.empty in
  with_engine ~batched:true ~morsel:1024 (fun () ->
      check_int "batch smaller than the group" 1 (Engine.count_envs plan));
  (* a constant check kills the entire batch at stage 0 *)
  let dead0 =
    Engine.compile db [ atom "E" [ v "x"; c 99 ] ] ~init:Mapping.empty
  in
  with_engine ~batched:true (fun () ->
      check_int "mask all-zero at stage 0" 0 (Engine.count_envs dead0);
      check_bool "no solutions enumerated" true (envs_of dead0 = []));
  (* a later filter stage starves every surviving row mid-instruction: the
     top-level choice is the smaller U, the E probe then matches nothing *)
  let db2 = Database.create () in
  Database.add db2 (Fact.make "E" [ Value.int 1; Value.int 2 ]);
  Database.add db2 (Fact.make "E" [ Value.int 3; Value.int 4 ]);
  Database.add db2 (Fact.make "U" [ Value.int 99 ]);
  let dead_mid =
    Engine.compile db2
      [ atom "U" [ v "x" ]; atom "E" [ v "x"; v "y" ] ]
      ~init:Mapping.empty
  in
  with_engine ~batched:true (fun () ->
      check_int "mask all-zero mid-pipeline" 0 (Engine.count_envs dead_mid);
      check_bool "sat agrees" false (Engine.sat dead_mid));
  (* forcing single-row batches exercises every group boundary *)
  let full = with_engine ~batched:false (fun () -> envs_of plan) in
  with_engine ~batched:true ~morsel:1 (fun () ->
      check_int "1-row morsel groups, same count" (List.length full)
        (Engine.count_envs plan))

(* ---- morsel boundary inside an OPT branch -------------------------------- *)

let test_opt_boundary () =
  let p =
    match Wdpt.Syntax.parse "free (x) { E(?x, ?y) } [ { U(?y) } ]" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let db = Database.create () in
  List.iter
    (fun i -> Database.add db (Fact.make "E" [ Value.int i; Value.int (i + 1) ]))
    (List.init 10 Fun.id);
  List.iter
    (fun i ->
      if i mod 2 = 0 then Database.add db (Fact.make "U" [ Value.int i ]))
    (List.init 11 Fun.id);
  let scalar = with_engine ~batched:false (fun () -> Wdpt.Semantics.eval db p) in
  check_bool "instance has extended and bare answers" true
    (Mapping.Set.cardinal scalar = 10);
  (* morsel 3 puts group boundaries inside both the root body's and the OPT
     branch's candidate ranges, sequentially and across a pool of 2 *)
  List.iter
    (fun nd ->
      with_engine ~batched:true ~domains:nd ~min_rows:1 ~morsel:3 (fun () ->
          check_bool
            (Printf.sprintf "batched OPT answers at pool %d" nd)
            true
            (Mapping.Set.equal (Wdpt.Semantics.eval db p) scalar)))
    [ 1; 2 ]

(* ---- paging parity on the batched streamed path -------------------------- *)

let test_paging_parity () =
  let db = db_of_edges [ (1, 2); (2, 3); (3, 4); (1, 3); (2, 4); (4, 1) ] in
  let atoms = [ e "x" "y" ] in
  let onto = [ "x" ] in
  let stream ~offset ~limit =
    let out = ref [] in
    let n =
      Engine.stream_projections db atoms ~init:Mapping.empty ~onto ~offset
        ~limit (fun m -> out := m :: !out)
    in
    check_int "emitted = returned" (List.length !out) n;
    List.rev !out
  in
  with_engine ~batched:true ~morsel:2 (fun () ->
      let full = stream ~offset:0 ~limit:None in
      check_int "distinct projections" 4 (List.length full);
      (* pages cut at morsel boundaries reassemble the batched stream *)
      let pages =
        stream ~offset:0 ~limit:(Some 2)
        @ stream ~offset:2 ~limit:(Some 1)
        @ stream ~offset:3 ~limit:(Some 5)
      in
      check_bool "batched pages reassemble the batched stream" true
        (pages = full);
      (* and the page union is the scalar answer set *)
      let scalar =
        with_engine ~batched:false (fun () -> stream ~offset:0 ~limit:None)
      in
      check_bool "batched pages = scalar answers as sets" true
        (Mapping.Set.equal
           (Mapping.Set.of_list pages)
           (Mapping.Set.of_list scalar)))

(* ---- properties ---------------------------------------------------------- *)

(* The batched interpreter and its scalar twin share one enumeration order:
   iter_envs agrees env for env across both interpreters at pools 1/2/4 and
   a random morsel size, and the answer sets agree at both levels. *)
let prop_batched_cq_agree =
  qtest ~count:100 "batched = scalar CQ answers (pools 1/2/4, small morsels)"
    (QCheck.triple arbitrary_cq arbitrary_db (QCheck.int_range 1 8))
    (fun (q, db, morsel) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let scalar_envs, scalar =
        with_engine ~batched:false ~domains:1 (fun () ->
            (envs_of plan, Cq.Eval.answers db q))
      in
      List.for_all
        (fun nd ->
          with_engine ~batched:true ~domains:nd ~min_rows:1 ~morsel (fun () ->
              envs_of plan = scalar_envs
              && Mapping.Set.equal (Cq.Eval.answers db q) scalar)
          && with_engine ~batched:false ~domains:nd ~min_rows:1 ~morsel
               (fun () -> envs_of plan = scalar_envs))
        [ 1; 2; 4 ])

(* at the tree level the order shows in the maximal homomorphisms, listed
   in enumeration order *)
let prop_batched_wdpt_agree =
  qtest ~count:60 "batched = scalar WDPT answers (pools 1/2/4)"
    (QCheck.triple arbitrary_small_wdpt arbitrary_db (QCheck.int_range 1 8))
    (fun (p, db, morsel) ->
      let scalar_homs, scalar =
        with_engine ~batched:false ~domains:1 (fun () ->
            (Wdpt.Semantics.maximal_homomorphisms db p, Wdpt.Semantics.eval db p))
      in
      List.for_all
        (fun nd ->
          with_engine ~batched:true ~domains:nd ~min_rows:1 ~morsel (fun () ->
              Wdpt.Semantics.maximal_homomorphisms db p = scalar_homs
              && Mapping.Set.equal (Wdpt.Semantics.eval db p) scalar))
        [ 1; 2; 4 ])

let prop_batched_order_deterministic =
  qtest ~count:100 "batched enumeration order identical at pools 1/2/4"
    (QCheck.triple arbitrary_cq arbitrary_db (QCheck.int_range 1 8))
    (fun (q, db, morsel) ->
      let plan = Engine.compile db (Cq.Query.body q) ~init:Mapping.empty in
      let reference =
        with_engine ~batched:true ~domains:1 ~min_rows:1 ~morsel (fun () ->
            envs_of plan)
      in
      List.for_all
        (fun nd ->
          with_engine ~batched:true ~domains:nd ~min_rows:1 ~morsel
            (fun () -> envs_of plan = reference && envs_of plan = reference))
        [ 2; 4 ])

(* ---- the low-memory fallback --------------------------------------------- *)

(* [eval --max-mem N --degrade] switches the batch pipeline off and the pool
   to one domain (bin/wdpt_cli.ml, admission_gate): the scalar twin must
   then enumerate the default path's envs in the same order, so a degraded
   [--limit] page prints the same answers as an undegraded one. *)
let test_degrade_order () =
  let db =
    db_of_edges
      (List.concat_map (fun i -> [ (i, (i * 3) mod 17); (i, (i + 5) mod 17) ])
         (List.init 17 Fun.id))
  in
  let p =
    match
      Wdpt.Syntax.parse "free (x, z) { E(?x, ?y) } [ { E(?y, ?z), E(?z, ?x) } ]"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let plan =
    Engine.compile db [ e "x" "y"; e "y" "z"; e "z" "w" ] ~init:Mapping.empty
  in
  let page () =
    let out = ref [] in
    ignore
      (Wdpt.Semantics.stream_eval db p ~offset:3 ~limit:(Some 10) (fun a ->
           out := a :: !out));
    List.rev !out
  in
  let run () = (envs_of plan, Wdpt.Semantics.maximal_homomorphisms db p, page ()) in
  List.iter
    (fun (nd, morsel) ->
      let envs, homs, pg =
        with_engine ~batched:true ~domains:nd ~min_rows:1 ~morsel run
      in
      let envs', homs', pg' = with_engine ~batched:false ~domains:1 run in
      let tag s = Printf.sprintf "%s (default pool %d, morsel %d)" s nd morsel in
      check_bool (tag "nonempty") true (envs <> [] && pg <> []);
      check_bool (tag "same envs, same order") true (envs = envs');
      check_bool (tag "same maximal homs, same order") true (homs = homs');
      check_bool (tag "same answer page") true (pg = pg'))
    [ (1, 1024); (1, 3); (2, 5) ]

let suite =
  [ Alcotest.test_case "morsel-skew regression" `Quick test_morsel_skew;
    Alcotest.test_case "morsel configuration clamps" `Quick test_morsel_config;
    Alcotest.test_case "batch-edge geometry" `Quick test_batch_edges;
    Alcotest.test_case "morsel boundary inside OPT" `Quick test_opt_boundary;
    Alcotest.test_case "paging parity (batched stream)" `Quick
      test_paging_parity;
    Alcotest.test_case "degraded run keeps the default order" `Quick
      test_degrade_order;
    prop_batched_cq_agree;
    prop_batched_wdpt_agree;
    prop_batched_order_deterministic ]
