(* The work pool and the parallel-extraction determinism sweep.

   The pool's contract (lib/util/pool.mli): every index runs exactly
   once, completion synchronizes memory, the first task exception is
   re-raised to the submitter, and a shut-down pool degrades to inline
   execution. The extraction contract (lib/seqgraph/extract.mli): all
   three engines produce bit-identical graphs, stats and Obs counters at
   any worker count, including on designs that survived fault-injection
   repair. *)

module Pool = Css_util.Pool
module Obs = Css_util.Obs
module Rng = Css_util.Rng
module Timer = Css_sta.Timer
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Extract = Css_seqgraph.Extract
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Mutator = Css_benchgen.Mutator
module Io = Css_netlist.Io

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* {2 Pool unit tests} *)

let test_default_jobs () = checkb "at least one worker" true (Pool.default_jobs () >= 1)

let test_map_matches_sequential () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          checki "jobs as requested" jobs (Pool.jobs pool);
          List.iter
            (fun n ->
              let got = Pool.map pool ~n (fun ~worker:_ i -> (i * 7) mod 13) in
              let want = Array.init n (fun i -> (i * 7) mod 13) in
              checkb (Printf.sprintf "map n=%d jobs=%d" n jobs) true (got = want))
            [ 0; 1; 2; 5; 64; 1000 ]))
    [ 1; 2; 8 ]

let test_run_covers_every_index_once () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 513 in
      (* per-index writes only, as the safety contract requires *)
      let hits = Array.make n 0 in
      Pool.run pool ~n (fun ~worker:_ i -> hits.(i) <- hits.(i) + 1);
      Array.iteri (fun i c -> checki (Printf.sprintf "index %d runs once" i) 1 c) hits)

let test_worker_ids_in_range () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let by = Pool.map pool ~n:200 (fun ~worker _ -> worker) in
      Array.iter (fun w -> checkb "worker id in [0, jobs)" true (w >= 0 && w < 3)) by)

exception Boom

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.run pool ~n:64 (fun ~worker:_ i -> if i = 37 then raise Boom) with
      | () -> Alcotest.fail "expected the task exception to re-raise"
      | exception Boom -> ());
      (* the next batch must still work: the pool is not poisoned *)
      let a = Pool.map pool ~n:32 (fun ~worker:_ i -> i) in
      checkb "pool reusable after an exception" true (a = Array.init 32 Fun.id))

let test_many_batches_reuse_workers () =
  let obs = Obs.create () in
  Pool.with_pool ~obs ~jobs:2 (fun pool ->
      for round = 1 to 50 do
        let a = Pool.map pool ~n:round (fun ~worker:_ i -> i + round) in
        checkb "batch result" true (a = Array.init round (fun i -> i + round))
      done);
  let c name = List.assoc_opt name (Obs.counters obs) in
  checkb "one domain spawned, reused across batches" true (c "pool.workers_spawned" = Some 1);
  checkb "every batch counted" true (c "pool.batches" = Some 50);
  checkb "every item counted" true (c "pool.items" = Some (50 * 51 / 2))

let test_shutdown_idempotent_then_inline () =
  let pool = Pool.create ~jobs:4 () in
  ignore (Pool.map pool ~n:8 (fun ~worker:_ i -> i));
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* after shutdown the pool degrades to inline execution *)
  let a = Pool.map pool ~n:8 (fun ~worker:_ i -> i * 2) in
  checkb "inline after shutdown" true (a = Array.init 8 (fun i -> i * 2))

(* Racing shutdowns (the signal-handler cleanup path racing a normal
   close) elect exactly one joiner; every caller returns and the pool
   then runs inline. *)
let test_shutdown_concurrent () =
  for _ = 1 to 20 do
    let pool = Pool.create ~jobs:4 () in
    ignore (Pool.map pool ~n:8 (fun ~worker:_ i -> i));
    let racers = Array.init 3 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool)) in
    Pool.shutdown pool;
    Array.iter Domain.join racers;
    let a = Pool.map pool ~n:4 (fun ~worker:_ i -> i + 1) in
    checkb "inline after racing shutdowns" true (a = Array.init 4 (fun i -> i + 1))
  done

(* {2 The determinism sweep}

   Everything observable from one extraction run: the ordered edge list,
   the BENCH-schema stats record, the round-by-round work trace and the
   engine's Obs counters. All of it must be equal at every worker
   count. *)

type snapshot = {
  sn_edges : (int * int * float * float) list; (* src, dst, delay, weight *)
  sn_stats : Extract.stats;
  sn_rounds : int list;
  sn_counters : (string * int) list;
}

let run_engine ~jobs engine design =
  let obs = Obs.create () in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let go pool =
    let eng = Extract.run ~obs ?pool ~engine timer verts ~corner:Timer.Late in
    (* loop until a round changes nothing: with the timer fixed, a
       second walk of an endpoint only refreshes what the first stored *)
    let fired = ref [] in
    let continue_ = ref true in
    while !continue_ do
      let n = (Extract.round eng).Extract.added in
      fired := n :: !fired;
      if n = 0 then continue_ := false
    done;
    let edges = ref [] in
    let g = Extract.graph eng in
    Seq_graph.iter_edges g (fun e ->
        edges := (Seq_graph.src g e, Seq_graph.dst g e, Seq_graph.delay g e, Seq_graph.weight g e) :: !edges);
    {
      sn_edges = List.rev !edges;
      sn_stats = Extract.stats eng;
      sn_rounds = List.rev !fired;
      sn_counters = Obs.counters obs;
    }
  in
  if jobs = 1 then go None else Pool.with_pool ~jobs (fun pool -> go (Some pool))

(* Generators are deterministic in the profile seed, so calling [mk]
   afresh per worker count reproduces the identical design. *)
let sweep name mk =
  List.iter
    (fun engine ->
      let ename = Extract.engine_name engine in
      let base = run_engine ~jobs:1 engine (mk ()) in
      checkb (Printf.sprintf "%s/%s extracts work" name ename) true
        (base.sn_stats.Extract.cone_nodes > 0);
      List.iter
        (fun jobs ->
          let par = run_engine ~jobs engine (mk ()) in
          let tag what = Printf.sprintf "%s/%s jobs=%d %s" name ename jobs what in
          checkb (tag "edge lists bit-identical") true (par.sn_edges = base.sn_edges);
          checkb (tag "stats identical") true (par.sn_stats = base.sn_stats);
          checkb (tag "round trace identical") true (par.sn_rounds = base.sn_rounds);
          checkb (tag "obs counters identical") true (par.sn_counters = base.sn_counters))
        [ 2; 8 ])
    [ Extract.Full; Extract.Essential; Extract.Iccss ]

let test_determinism_tiny () = sweep "tiny" (fun () -> Generator.generate Profile.tiny)

let test_determinism_scaled () =
  sweep "sb18-scaled" (fun () ->
      Generator.generate (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))))

(* A design that survived fault injection exercises the repaired-input
   shapes (dangling pins dropped, etc.) the clean generators never
   produce. *)
let test_determinism_corrupted () =
  let mk () =
    let text = Io.to_string (Generator.generate Profile.tiny) in
    let text, _ = Mutator.corrupt Mutator.Drop_net (Rng.create 77) text in
    match Io.of_string ~policy:Io.Recover ~library:Css_liberty.Library.default text with
    | Ok (d, _) -> d
    | Error _ -> Alcotest.fail "corrupted design did not recover"
  in
  sweep "tiny-corrupted" mk

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "run covers every index once" `Quick test_run_covers_every_index_once;
          Alcotest.test_case "worker ids in range" `Quick test_worker_ids_in_range;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "batches reuse workers" `Quick test_many_batches_reuse_workers;
          Alcotest.test_case "shutdown idempotent, then inline" `Quick
            test_shutdown_idempotent_then_inline;
          Alcotest.test_case "shutdown race elects one joiner" `Quick test_shutdown_concurrent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tiny, all engines, jobs 1/2/8" `Quick test_determinism_tiny;
          Alcotest.test_case "scaled sb18, all engines, jobs 1/2/8" `Quick
            test_determinism_scaled;
          Alcotest.test_case "mutator-corrupted design" `Quick test_determinism_corrupted;
        ] );
    ]
