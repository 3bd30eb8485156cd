(** The resident scheduler daemon behind [css_serve serve].

    One single-threaded loop multiplexes every open {!Css_flow.Session}
    over a Unix-domain socket speaking {!Protocol} frames. Requests are
    handled one at a time on the daemon thread (a session's own worker
    pool still parallelizes extraction inside a request per its [jobs]),
    so sessions never race each other and the per-request answers stay
    bitwise deterministic.

    {2 Governance and observability}

    Each session runs under its own {!Css_util.Budget} (wall/RSS knobs
    from the open request or the daemon defaults) and reports its last
    [stop_reason] through the [stats] op. The daemon counts requests
    into [service.*] counters on [config.obs], feeds per-op request
    latencies into {!Css_util.Histo} histograms (exposed by [stats] as
    [request_seconds], gateable via [css_stats --gate]), and samples
    request durations onto [config.tracer].

    {2 Crash safety}

    With [state_dir] set, every session lives in
    [<state_dir>/<name>/]: the {!Css_flow.Persist} checkpoint the
    session maintains plus a [session.json] with the open request's
    knobs. A daemon started over the same directory resumes every
    session bitwise where its last completed phase left it — including
    after SIGKILL, since checkpoints are written at open and after each
    completed request/phase. SIGINT/SIGTERM are owned by ONE
    {!Css_flow.Persist.install_handlers} handler that raises the
    cooperative interrupt (stopping any in-flight run at its next poll)
    and flushes all sessions' checkpoints and the tracer ring when the
    loop is idle; cleanly [close]d sessions delete their directory and
    do not resurrect. *)

type config = {
  socket : string;  (** Unix-domain socket path (replaced if present) *)
  state_dir : string option;  (** session persistence root; [None] = in-memory only *)
  library : Css_liberty.Library.t;  (** cell library design texts parse against *)
  rounds : int;  (** default rounds for [open] requests that omit it *)
  jobs : int;  (** default per-session worker count *)
  final_eval : bool;  (** default {!Css_flow.Session.config.final_eval} (daemon default [false]) *)
  rollback : bool;
      (** default rollback (daemon default [false]); rollback implies
          final evaluation, which scores the checkpoints *)
  wall_seconds : float option;  (** default per-session wall budget *)
  rss_mb : int option;  (** default per-session RSS budget *)
  cache_mb : int;
      (** default per-session macromodel-cache budget in MiB (daemon
          default 64; [0] disables). Per-request hit/miss deltas feed
          the [service.cache.hits]/[service.cache.misses] counters, and
          the [stats] op reports each session's cumulative cache
          counters. *)
  max_sessions : int;  (** [open] beyond this answers [SRV-002] *)
  obs : Css_util.Obs.t;
  tracer : Css_util.Tracer.t;
}

val default_config : config

(** [session_config cfg ~p ~dir] is the session configuration an [open]
    request [p] gets: its knobs over [cfg]'s defaults, checkpoints
    under [dir]. Rollback, from either, turns final evaluation on:
    {!Css_flow.Session} rolls back only to evaluator-scored
    checkpoints. *)
val session_config :
  config -> p:Protocol.open_params -> dir:string option -> Css_flow.Session.config

(** [serve ?on_ready cfg] binds the socket, restores any persisted
    sessions, installs the signal handler and serves until a [shutdown]
    request or SIGINT/SIGTERM; on exit every session is checkpointed
    and closed and the socket unlinked. [on_ready] runs once the socket
    accepts connections (tests fork then synchronize on it). *)
val serve : ?on_ready:(unit -> unit) -> config -> unit
