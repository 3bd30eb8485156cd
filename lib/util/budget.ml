(* Resource budgets for long-running flows. A budget is armed once at
   flow start and polled at iteration/phase boundaries; polling is two
   procfs line scans plus a clock read, cheap enough for every scheduler
   iteration but not for inner timing loops.

   Two thresholds per resource: above [soft_frac] of a limit every poll
   reports [Soft] (the caller sheds one rung of load per poll — pick a
   cheaper engine, stop early — until pressure clears or
   its ladder is exhausted), crossing the limit itself reports [Hard]
   (the flow must stop with best-so-far now, before the kernel or the
   batch system stops it for us). The Obs trip counters and snapshots
   fire only on the *first* crossing per resource and level, so the
   artifact records when pressure began, not every poll under it. When
   both resources are over, the wall clock wins the reason string —
   the wall limit is the budget the user set explicitly, RSS is usually
   inherited from the machine. *)

type limits = {
  wall_seconds : float option;
  rss_bytes : int option;
  soft_frac : float;
}

let no_limits = { wall_seconds = None; rss_bytes = None; soft_frac = 0.85 }

type pressure = Under | Soft of string | Hard of string

type t = {
  limits : limits;
  started : float;
  obs : Obs.t;
  polls : Obs.counter;
  soft_trips : Obs.counter;
  hard_trips : Obs.counter;
  mutable wall_soft : bool; (* first Soft "wall" trip already recorded *)
  mutable rss_soft : bool;
  mutable hard_reason : string option; (* sticky: budgets never un-trip *)
  (* counter lanes on [obs]'s timeline: budget pressure over time *)
  wall_lane : Obs.lane;
  rss_lane : Obs.lane;
}

let create ?(obs = Obs.null) limits =
  if not (limits.soft_frac > 0. && limits.soft_frac <= 1.) then
    invalid_arg "Budget.create: soft_frac must be in (0, 1]";
  (match limits.wall_seconds with
  | Some s when not (s > 0.) -> invalid_arg "Budget.create: wall_seconds must be positive"
  | _ -> ());
  (match limits.rss_bytes with
  | Some b when b <= 0 -> invalid_arg "Budget.create: rss_bytes must be positive"
  | _ -> ());
  {
    limits;
    started = Wall_clock.now ();
    obs;
    polls = Obs.counter obs "budget.polls";
    soft_trips = Obs.counter obs "budget.soft_trips";
    hard_trips = Obs.counter obs "budget.hard_trips";
    wall_soft = false;
    rss_soft = false;
    hard_reason = None;
    wall_lane = Obs.lane obs "budget.wall_s";
    rss_lane = Obs.lane obs "budget.rss_bytes";
  }

let elapsed_seconds t = Wall_clock.now () -. t.started

let hard t = t.hard_reason <> None

let trip t ~level ~reason ~used ~limit =
  let c = if level = "hard" then t.hard_trips else t.soft_trips in
  Obs.incr c;
  Obs.snapshot t.obs ~label:"budget"
    [
      ("level", Obs.Json.String level);
      ("reason", Obs.Json.String reason);
      ("used", Obs.Json.Float used);
      ("limit", Obs.Json.Float limit);
      ("elapsed_seconds", Obs.Json.Float (elapsed_seconds t));
    ]

(* Classify one resource as `Hard / `Soft / `Under against its limit. *)
let classify ~soft_frac ~used ~limit =
  if used >= limit then `Hard else if used >= soft_frac *. limit then `Soft else `Under

let poll t =
  Obs.incr t.polls;
  match t.hard_reason with
  | Some reason -> Hard reason
  | None ->
    let wall_used = elapsed_seconds t in
    let wall_state =
      match t.limits.wall_seconds with
      | None -> `Under
      | Some limit -> classify ~soft_frac:t.limits.soft_frac ~used:wall_used ~limit
    in
    let rss_used = float_of_int (Rusage.current_rss_bytes ()) in
    Obs.sample t.wall_lane wall_used;
    if rss_used > 0. then Obs.sample t.rss_lane rss_used;
    let rss_state =
      match t.limits.rss_bytes with
      | None -> `Under
      | Some _ when rss_used = 0. -> `Under (* RSS not measurable here *)
      | Some limit -> classify ~soft_frac:t.limits.soft_frac ~used:rss_used ~limit:(float_of_int limit)
    in
    let wall_limit = Option.value t.limits.wall_seconds ~default:0. in
    let rss_limit = float_of_int (Option.value t.limits.rss_bytes ~default:0) in
    (match (wall_state, rss_state) with
    | `Hard, _ ->
      t.hard_reason <- Some "wall";
      trip t ~level:"hard" ~reason:"wall" ~used:wall_used ~limit:wall_limit;
      Hard "wall"
    | _, `Hard ->
      t.hard_reason <- Some "rss";
      trip t ~level:"hard" ~reason:"rss" ~used:rss_used ~limit:rss_limit;
      Hard "rss"
    | `Soft, _ ->
      if not t.wall_soft then begin
        t.wall_soft <- true;
        trip t ~level:"soft" ~reason:"wall" ~used:wall_used ~limit:wall_limit
      end;
      Soft "wall"
    | _, `Soft ->
      if not t.rss_soft then begin
        t.rss_soft <- true;
        trip t ~level:"soft" ~reason:"rss" ~used:rss_used ~limit:rss_limit
      end;
      Soft "rss"
    | `Under, `Under -> Under)
