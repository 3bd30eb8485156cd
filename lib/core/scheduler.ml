module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Extract = Css_seqgraph.Extract
module Obs = Css_util.Obs
module Csr = Css_mmwc.Csr

let log_src = Logs.Src.create "css.scheduler" ~doc:"iterative clock skew scheduler"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* increments at or below this end the loop *)
let eps = 1e-6

(* consecutive iterations without TNS progress before the loop stops *)
let stall_iterations = 6

type config = {
  max_iterations : int;
  verify_weights : bool;
  nonneg_rule : bool;
  deadline_seconds : float option;
  best_ring : int;
  should_stop : (unit -> bool) option;
}

let default_config =
  {
    max_iterations = 100;
    verify_weights = false;
    nonneg_rule = true;
    deadline_seconds = None;
    best_ring = 4;
    should_stop = None;
  }

type extraction = {
  extract : unit -> Extract.outcome;
  graph : Seq_graph.t;
  on_cap_hit : Vertex.id -> unit;
}

type iteration = {
  index : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  edges_in_graph : int;
  edges_new : int;
  handled_cycle : bool;
  max_increment : float;
}

type stop_reason =
  | Converged
  | Max_iterations
  | Stalled
  | Deadline
  | Interrupted

let stop_reason_name = function
  | Converged -> "converged"
  | Max_iterations -> "max-iterations"
  | Stalled -> "stalled"
  | Deadline -> "deadline"
  | Interrupted -> "interrupted"

type result = {
  target_latency : float array;
  iterations : int;
  cycles_handled : int;
  stop_reason : stop_reason;
  ring_restored : bool;
  trace : iteration list;
}

(* One best-ring state: the actual scheduled latencies and the
   accumulated [l*] at iteration [at_iter]. *)
type ring_entry = {
  mutable at_iter : int;
  mutable tns : float;
  l_star_snap : float array;
  latency_snap : float array;
}

let run ?(config = default_config) ?(obs = Obs.null) timer ext =
  let graph = ext.graph in
  let verts = Seq_graph.vertices graph in
  let corner = Seq_graph.corner graph in
  let corner_name = match corner with Timer.Late -> "late" | Timer.Early -> "early" in
  let design = Timer.design timer in
  let o_iters = Obs.counter obs "sched.iterations" in
  let o_cycles = Obs.counter obs "sched.cycles_pinned" in
  let o_arbs = Obs.counter obs "sched.arborescence_builds" in
  let o_two_pass = Obs.counter obs "sched.two_pass_sweeps" in
  let o_bounds = Obs.counter obs "sched.bound_refreshes" in
  let o_raised = Obs.counter obs "sched.latency_increments" in
  let observed = Obs.enabled obs in
  (* Latency distributions per iteration phase (log-bucketed; see
     docs/OBSERVABILITY.md): where does an iteration's time go, and how
     heavy is the tail? Plus MMWC cycle lengths and the allocation cost
     per iteration — the continuously-measured form of the SoA core's
     allocation-free claim. *)
  let h_extract = Obs.histogram obs "sched.extract_s" in
  let h_solve = Obs.histogram obs "sched.solve_s" in
  let h_apply = Obs.histogram obs "sched.apply_s" in
  let h_cycle_len = Obs.histogram obs "sched.cycle_len" in
  let h_alloc = Obs.histogram obs "sched.alloc_words" in
  let alloc_mark = ref (if observed then Css_util.Rusage.gc_allocated_words () else 0.0) in
  let n = Vertex.num verts in
  (* The run's workspace, reused in place every iteration: the selected
     negative edges, their CSR adjacency (whose touched vertices bound
     every per-iteration loop below), and the solvers' scratch. *)
  let selected = ref None in
  let csr = Csr.create () in
  Csr.reserve csr ~n ~m:(Seq_graph.num_edges graph);
  let cycle_ws = Cycle.workspace ~n in
  let arb = Arborescence.create ~n in
  let two_pass_ws = Two_pass.workspace ~n in
  (* per-vertex bounds, filled for the touched non-fixed vertices each
     solving iteration ([Bounds.fill]); the ablation without the
     admission rule reads out-weights from a constant array *)
  let margins = Array.make n 0.0 and caps = Array.make n 0.0 in
  let out_weights = if config.nonneg_rule then margins else Array.make n infinity in
  let max_increment increments =
    let m = ref 0.0 in
    for i = 0 to Csr.num_verts csr - 1 do
      m := Float.max !m increments.(Csr.vert csr i)
    done;
    !m
  in
  let fixed = Array.make n false in
  fixed.(Vertex.input_super verts) <- true;
  fixed.(Vertex.output_super verts) <- true;
  let is_fixed v = fixed.(v) in
  let l_star = Array.make n 0.0 in
  let trace = ref [] in
  let cycles = ref 0 in
  let record ~index ~edges_new ~handled_cycle ~max_increment =
    let it =
      {
        index;
        wns_early = Timer.wns timer Timer.Early;
        tns_early = Timer.tns timer Timer.Early;
        wns_late = Timer.wns timer Timer.Late;
        tns_late = Timer.tns timer Timer.Late;
        edges_in_graph = Seq_graph.num_edges graph;
        edges_new;
        handled_cycle;
        max_increment;
      }
    in
    trace := it :: !trace;
    Obs.incr o_iters;
    if observed then begin
      let a = Css_util.Rusage.gc_allocated_words () in
      Css_util.Histo.observe h_alloc (a -. !alloc_mark);
      alloc_mark := a
    end;
    if Obs.enabled obs then
      Obs.snapshot obs ~label:"sched.iter"
        [
          ("corner", Obs.Json.String corner_name);
          ("iter", Obs.Json.Int index);
          ("wns_early", Obs.Json.Float it.wns_early);
          ("tns_early", Obs.Json.Float it.tns_early);
          ("wns_late", Obs.Json.Float it.wns_late);
          ("tns_late", Obs.Json.Float it.tns_late);
          ("edges_in_graph", Obs.Json.Int it.edges_in_graph);
          ("edges_new", Obs.Json.Int edges_new);
          ("handled_cycle", Obs.Json.Bool handled_cycle);
          ("max_increment", Obs.Json.Float max_increment);
        ]
  in
  let o_nonfinite = Obs.counter obs "sched.nonfinite_increments" in
  (* [increments] is zero outside the touched vertices of [csr] *)
  let apply increments =
    let t_apply = Css_util.Wall_clock.now () in
    (* Numeric guard: a NaN/inf increment would be written straight into a
       scheduled latency and poison every subsequent propagation. Drop it
       (counted) rather than apply it. *)
    for i = 0 to Csr.num_verts csr - 1 do
      let v = Csr.vert csr i in
      if not (Float.is_finite increments.(v)) then begin
        increments.(v) <- 0.0;
        Obs.incr o_nonfinite
      end
    done;
    let changed = ref [] in
    for i = 0 to Csr.num_verts csr - 1 do
      let v = Csr.vert csr i in
      let ff = Vertex.ff_id verts v in
      if increments.(v) > 0.0 && ff >= 0 then begin
        Design.set_scheduled_latency design ff
          (Design.scheduled_latency design ff +. increments.(v));
        changed := ff :: !changed;
        Obs.incr o_raised;
        l_star.(v) <- l_star.(v) +. increments.(v)
      end
    done;
    Timer.update_latencies timer !changed;
    Seq_graph.apply_latency_delta graph increments;
    if observed then Css_util.Histo.observe h_apply (Css_util.Wall_clock.now () -. t_apply)
  in
  let hard_cap v =
    Obs.incr o_bounds;
    Bounds.hard_cap timer verts corner v
  in
  (* Best-k ring: bounded snapshots of the best states seen, so a run
     that ends by stalling or hitting the iteration cap can back out of
     the oscillation it wandered into instead of keeping its final (and
     possibly worse) latencies. A snapshot stores the *actual* scheduled
     latencies, not replayed increments — incremental float accumulation
     means base + Σincrements need not equal the value that was live at
     the best iteration, and restore must be bit-exact. *)
  let ring_k = max 0 config.best_ring in
  (* slots are overwritten in place when they come round again; the
     first [min !ring_next ring_k] hold states *)
  let ring =
    Array.init ring_k (fun _ ->
        { at_iter = 0; tns = 0.0; l_star_snap = Array.make n 0.0; latency_snap = Array.make n 0.0 })
  in
  let ring_next = ref 0 in
  let o_ring_restores = Obs.counter obs "sched.ring_restores" in
  let ring_push ~at_iter =
    if ring_k > 0 then begin
      let entry = ring.(!ring_next mod ring_k) in
      for v = 0 to n - 1 do
        let ff = Vertex.ff_id verts v in
        if ff >= 0 then entry.latency_snap.(v) <- Design.scheduled_latency design ff
      done;
      Array.blit l_star 0 entry.l_star_snap 0 n;
      entry.at_iter <- at_iter;
      entry.tns <- Timer.tns timer corner;
      incr ring_next
    end
  in
  let ring_best () =
    let best = ref None in
    for i = 0 to min !ring_next ring_k - 1 do
      match !best with
      (* >= : among equal-TNS states prefer the later one, whose
         pinned-cycle structure matches the run's end state *)
      | Some b when not (ring.(i).tns >= b.tns) -> ()
      | Some _ | None -> best := Some ring.(i)
    done;
    !best
  in
  let ring_restore { l_star_snap; latency_snap; _ } =
    let deltas = Array.make n 0.0 in
    let changed = ref [] in
    for v = 0 to n - 1 do
      let ff = Vertex.ff_id verts v in
      if ff >= 0 then begin
        let cur = Design.scheduled_latency design ff in
        if cur <> latency_snap.(v) then begin
          deltas.(v) <- latency_snap.(v) -. cur;
          Design.set_scheduled_latency design ff latency_snap.(v);
          changed := ff :: !changed
        end
      end
    done;
    Timer.update_latencies timer !changed;
    Seq_graph.apply_latency_delta graph deltas;
    Array.blit l_star_snap 0 l_star 0 n;
    Obs.incr o_ring_restores
  in
  (* Stall guard: increments can stay non-zero while the corner's negative
     slack no longer improves (e.g. balancing churn around caps); a few
     fruitless iterations end the loop. *)
  let best_tns = ref neg_infinity in
  let stall = ref 0 in
  let progressed ~at_iter =
    let tns = Timer.tns timer corner in
    if tns > !best_tns +. Float.max 0.1 eps then begin
      best_tns := tns;
      stall := 0;
      ring_push ~at_iter;
      true
    end
    else begin
      incr stall;
      !stall < stall_iterations
    end
  in
  let t0 = Css_util.Wall_clock.now () in
  let past_deadline () =
    match config.deadline_seconds with
    | None -> false
    | Some d -> Css_util.Wall_clock.now () -. t0 > d
  in
  let interrupted () = match config.should_stop with None -> false | Some f -> f () in
  let rec iterate k =
    if k > config.max_iterations then (config.max_iterations, Max_iterations)
    else if interrupted () then begin
      Log.warn (fun m -> m "iter %d: interrupt requested, stopping" k);
      (k - 1, Interrupted)
    end
    else if past_deadline () then begin
      Log.warn (fun m -> m "iter %d: wall-clock deadline exceeded, stopping" k);
      (k - 1, Deadline)
    end
    else begin
      let t_extract = Css_util.Wall_clock.now () in
      let edges_before = Seq_graph.num_edges graph in
      let round = ext.extract () in
      let edges_new = Seq_graph.num_edges graph - edges_before in
      if observed then Css_util.Histo.observe h_extract (Css_util.Wall_clock.now () -. t_extract);
      let t_solve = Css_util.Wall_clock.now () in
      let solve_done () =
        if observed then Css_util.Histo.observe h_solve (Css_util.Wall_clock.now () -. t_solve)
      in
      if config.verify_weights then Seq_graph.refresh_weights graph timer;
      (* Edges between two pinned vertices can never change again: keeping
         them would re-detect already-handled cycles forever. *)
      let neg_edges =
        Seq_graph.select ?reuse:!selected graph (fun id ->
            Seq_graph.weight graph id < -.eps
            && not (fixed.(Seq_graph.src graph id) && fixed.(Seq_graph.dst graph id)))
      in
      selected := Some neg_edges;
      (* self-loops are single-vertex cycles no skew can change *)
      Csr.fill csr ~n ~m:neg_edges.Seq_graph.v_n ~src:neg_edges.Seq_graph.v_src
        ~dst:neg_edges.Seq_graph.v_dst ~w:neg_edges.Seq_graph.v_w;
      match Cycle.schedule cycle_ws csr ~fixed:is_fixed ~hard_cap with
      | Some cyc ->
        Log.info (fun m ->
            m "iter %d: cycle of %d vertices pinned at mean %.2f" k
              (List.length cyc.Cycle.members) cyc.Cycle.mean);
        List.iter (fun v -> fixed.(v) <- true) cyc.Cycle.members;
        incr cycles;
        Obs.incr o_cycles;
        if observed then Css_util.Histo.observe_int h_cycle_len (List.length cyc.Cycle.members);
        solve_done ();
        apply cyc.Cycle.increments;
        let max_increment = max_increment cyc.Cycle.increments in
        record ~index:k ~edges_new ~handled_cycle:true ~max_increment;
        (* cycle handling always makes structural progress (members are
           pinned), so it never counts as a stall *)
        ignore (progressed ~at_iter:k);
        stall := 0;
        iterate (k + 1)
      | None ->
        Obs.add o_bounds
          (Bounds.fill timer verts corner csr ~fixed:is_fixed ~margin:margins ~hard_cap:caps);
        Arborescence.build_into arb ~fixed:is_fixed ~out_weight:out_weights neg_edges;
        Obs.incr o_arbs;
        assert (Arborescence.skipped_cycle_edges arb = 0);
        let tp =
          Two_pass.run two_pass_ws csr ~arb ~fixed:is_fixed ~margin:margins ~hard_cap:caps
        in
        Obs.incr o_two_pass;
        let max_increment = max_increment tp.Two_pass.l in
        if max_increment <= eps then begin
          solve_done ();
          record ~index:k ~edges_new ~handled_cycle:false ~max_increment;
          (* zero increments end the phase only once extraction is
             quiescent: a round that changed the constraint set (inserted
             or rebound an edge) gets one more round to confirm, and a
             rate-limited round that left endpoints unwalked never ends it *)
          if round.Extract.added > 0 || round.Extract.truncated then iterate (k + 1)
          else (k, Converged)
        end
        else begin
          (* IC-CSS+ pays for constraint-edge extraction when the Eq. (11)
             cap was the binding constraint for a vertex. Only a touched
             vertex can have a tree parent. *)
          for i = 0 to Csr.num_verts csr - 1 do
            let v = Csr.vert csr i in
            if (not fixed.(v)) && not (Arborescence.is_root arb v) then begin
              let cap = caps.(v) in
              let unconstrained =
                tp.Two_pass.l.(Arborescence.parent arb v) -. Arborescence.parent_weight arb v
              in
              if tp.Two_pass.l.(v) +. 1e-9 >= cap && cap < unconstrained -. 1e-9 then
                ext.on_cap_hit v
            end
          done;
          solve_done ();
          apply tp.Two_pass.l;
          Log.debug (fun m ->
              m "iter %d: %d essential edges, max increment %.2f, %s TNS %.2f" k
                neg_edges.Seq_graph.v_n max_increment
                (match corner with Timer.Late -> "late" | Timer.Early -> "early")
                (Timer.tns timer corner));
          record ~index:k ~edges_new ~handled_cycle:false ~max_increment;
          if progressed ~at_iter:k then iterate (k + 1) else (k, Stalled)
        end
    end
  in
  ring_push ~at_iter:0;
  let iterations, stop_reason = iterate 1 in
  (* Back out of an oscillation: a run that stalled or ran out of
     iterations keeps whatever state its last fruitless iterations left
     behind; if the ring holds a strictly better state, restore it.
     Converged runs are already at their best; deadline/interrupt stops
     hand the partial phase to the flow, which discards it. *)
  let ring_restored =
    match stop_reason with
    | Stalled | Max_iterations -> (
      match ring_best () with
      | Some entry when entry.tns > Timer.tns timer corner +. eps ->
        Log.info (fun m ->
            m "restoring best-ring state from iter %d (%s TNS %.2f over %.2f)" entry.at_iter
              corner_name entry.tns (Timer.tns timer corner));
        ring_restore entry;
        true
      | _ -> false)
    | Converged | Deadline | Interrupted -> false
  in
  {
    target_latency = l_star;
    iterations;
    cycles_handled = !cycles;
    stop_reason;
    ring_restored;
    trace = List.rev !trace;
  }
