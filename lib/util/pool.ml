(* Domain-based work pool: [jobs - 1] persistent worker domains plus the
   submitting thread execute indexed batches, claiming chunks of indices
   off a shared atomic cursor. Determinism is delegated to callers
   (per-index result slots, merged in index order); the pool itself only
   guarantees that every index runs exactly once and that completion
   synchronizes memory (workers publish under the pool mutex). *)

type batch = {
  b_n : int;
  b_task : worker:int -> int -> unit;
  b_chunk : int;
  b_next : int Atomic.t; (* next unclaimed index; >= b_n when drained *)
  mutable b_active : int; (* workers inside this batch, under [mu] *)
  mutable b_exn : (exn * Printexc.raw_backtrace) option; (* first, under [mu] *)
}

type t = {
  p_jobs : int;
  mu : Mutex.t;
  ready : Condition.t; (* new batch published, or stopping *)
  finished : Condition.t; (* a worker left the current batch *)
  mutable current : batch option;
  mutable gen : int; (* bumped per published batch, under [mu] *)
  mutable stopping : bool;
  stopped : bool Atomic.t; (* shutdown already won the race to join *)
  mutable domains : unit Domain.t list;
  (* Flushed by the submitting thread only (per-worker-flush rule). *)
  o_batches : Obs.counter;
  o_items : Obs.counter;
  (* Workers read [obs]'s attached tracer and nothing else of it: tracks
     are single-writer per worker, so workers may trace freely. *)
  obs : Obs.t;
  tr_chunk : Tracer.name;
}

let default_jobs () = Domain.recommended_domain_count ()
let jobs t = t.p_jobs

(* Claim and execute chunks of [b] until the cursor runs out. On the
   first task exception the batch is poisoned: the exception is parked
   for the submitter and the cursor fast-forwarded past [b_n] so every
   worker drains promptly. *)
let exec_share t b ~worker =
  let tr = Obs.tracer t.obs in
  let traced = Tracer.enabled tr in
  let continue_ = ref true in
  while !continue_ do
    let start = Atomic.fetch_and_add b.b_next b.b_chunk in
    if start >= b.b_n then continue_ := false
    else
      let stop = min b.b_n (start + b.b_chunk) in
      if traced then Tracer.span_begin tr ~track:worker t.tr_chunk;
      (try
        for i = start to stop - 1 do
          b.b_task ~worker i
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mu;
        if b.b_exn = None then b.b_exn <- Some (e, bt);
        Mutex.unlock t.mu;
        Atomic.set b.b_next (b.b_n + (t.p_jobs * b.b_chunk)));
      if traced then Tracer.span_end tr ~track:worker t.tr_chunk
  done

let worker_loop t ~worker =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while (not t.stopping) && t.gen = !last_gen do
      Condition.wait t.ready t.mu
    done;
    if t.stopping then begin
      Mutex.unlock t.mu;
      running := false
    end
    else begin
      last_gen := t.gen;
      let b = Option.get t.current in
      b.b_active <- b.b_active + 1;
      Mutex.unlock t.mu;
      exec_share t b ~worker;
      Mutex.lock t.mu;
      b.b_active <- b.b_active - 1;
      if b.b_active = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mu
    end
  done

let create ?(obs = Obs.null) ?jobs () =
  let jobs = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let t =
    {
      p_jobs = jobs;
      mu = Mutex.create ();
      ready = Condition.create ();
      finished = Condition.create ();
      current = None;
      gen = 0;
      stopping = false;
      stopped = Atomic.make false;
      domains = [];
      o_batches = Obs.counter obs "pool.batches";
      o_items = Obs.counter obs "pool.items";
      obs;
      tr_chunk = Tracer.intern (Obs.tracer obs) "pool.chunk";
    }
  in
  let spawned = jobs - 1 in
  t.domains <-
    List.init spawned (fun k ->
        Domain.spawn (fun () -> worker_loop t ~worker:(k + 1)));
  Obs.add (Obs.counter obs "pool.workers_spawned") spawned;
  t

let run_inline ~n task =
  for i = 0 to n - 1 do
    task ~worker:0 i
  done

let run t ~n task =
  if n > 0 then begin
    Obs.incr t.o_batches;
    Obs.add t.o_items n;
    if t.p_jobs = 1 || n = 1 || t.domains = [] then run_inline ~n task
    else begin
      (* Aim for several chunks per worker so stragglers rebalance, but
         never chunks so small that cursor traffic dominates. *)
      let chunk = max 1 (n / (t.p_jobs * 8)) in
      let b =
        {
          b_n = n;
          b_task = task;
          b_chunk = chunk;
          b_next = Atomic.make 0;
          b_active = 0;
          b_exn = None;
        }
      in
      Mutex.lock t.mu;
      t.current <- Some b;
      t.gen <- t.gen + 1;
      Condition.broadcast t.ready;
      Mutex.unlock t.mu;
      exec_share t b ~worker:0;
      Mutex.lock t.mu;
      while b.b_active > 0 do
        Condition.wait t.finished t.mu
      done;
      (* Leave the drained batch published: a worker that wakes late
         finds an exhausted cursor and no-ops instead of a hole. *)
      Mutex.unlock t.mu;
      match b.b_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let map t ~n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run t ~n (fun ~worker i -> out.(i) <- Some (f ~worker i));
    Array.map (function Some v -> v | None -> assert false) out
  end

(* The [stopped] exchange elects exactly one joiner, so concurrent or
   repeated calls (a daemon's SIGTERM cleanup racing the owner's normal
   [Fun.protect] finally) return immediately without touching the mutex
   — the loser must not block on a lock the interrupted thread may
   already hold. *)
let shutdown t =
  if not (Atomic.exchange t.stopped true) then begin
    Mutex.lock t.mu;
    t.stopping <- true;
    Condition.broadcast t.ready;
    let ds = t.domains in
    t.domains <- [];
    Mutex.unlock t.mu;
    List.iter Domain.join ds
  end

let with_pool ?obs ?jobs f =
  let t = create ?obs ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
