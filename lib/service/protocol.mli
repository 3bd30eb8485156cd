(** The [css_serve] wire protocol: length-prefixed JSON frames over a
    Unix-domain socket.

    {2 Framing}

    Each message is a 4-byte big-endian payload length followed by that
    many bytes of compact UTF-8 JSON (one request or response object per
    frame; at most {!max_frame} bytes). Requests and responses alternate
    strictly per connection — the protocol has no pipelining, which
    keeps the daemon's per-connection state to a file descriptor.

    {2 Determinism}

    Every float whose exact value matters — delta coordinates and
    latencies in requests, scheduled latencies and slack metrics in
    responses — travels as a {e string} produced by
    {!Css_netlist.Io.float_to_string} (shortest round-trip form), so a
    client can compare a session's answer bitwise against a local
    [Flow.run] without float re-derivation. Plain JSON numbers are also
    accepted on input for hand-written requests.

    {2 Requests}

    [op] selects the operation; see [docs/SERVICE.md] for the schema of
    each: [ping], [open] (load a design into a named session), [run]
    (drain the session to a scored result), [apply_delta] (atomic delta
    batch + incremental re-schedule), [latencies] (exact per-FF
    schedule), [snapshot] (force a durable checkpoint), [close],
    [stats] (daemon counters, per-op latency histograms, per-session
    status), [shutdown].

    Responses are [{"ok": true, ...}] or
    [{"ok": false, "error": [{code, message}, ...]}] with the [Diag]
    codes of whatever layer rejected the request ([SRV-*] for protocol
    and lifecycle errors). *)

(** Hard cap on payload size (64 MiB — a paper-scale design text). *)
val max_frame : int

(** Malformed framing (oversized length, mid-frame EOF). Protocol
    errors, unlike request errors, are not recoverable per-connection. *)
exception Framing of string

(** [write_frame fd payload] writes one length-prefixed frame,
    retrying interrupted writes. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one frame; [None] on clean EOF at a frame
    boundary. @raise Framing on mid-frame EOF or a bad length. *)
val read_frame : Unix.file_descr -> string option

(** {1 Typed requests} *)

type open_params = {
  o_session : string;  (** session name (also its checkpoint directory name) *)
  o_design : string;  (** design text, as by {!Css_netlist.Io.to_string} *)
  o_algo : string;  (** {!Css_flow.Session.algo_name} form, e.g. ["Ours"] *)
  o_rounds : int option;
  o_final_eval : bool option;  (** see {!Css_flow.Session.config.final_eval} *)
  o_rollback : bool option;
  o_wall_seconds : float option;  (** per-session wall budget *)
  o_rss_mb : int option;  (** per-session RSS budget *)
}

type request =
  | Ping
  | Open of open_params
  | Run of string
  | Apply_delta of string * Css_flow.Session.delta list
  | Latencies of string
  | Snapshot of string
  | Close of string
  | Stats
  | Shutdown

(** Raised by the [of_json] decoders on schema violations. *)
exception Bad_request of string

val request_to_json : request -> Css_util.Json.t

(** @raise Bad_request on schema violations. *)
val request_of_json : Css_util.Json.t -> request

(** {1 Responses} *)

(** [ok fields] is [{"ok": true, <fields>}]. *)
val ok : (string * Css_util.Json.t) list -> Css_util.Json.t

(** [error_of_diags diags] is the failure envelope carrying each
    diagnostic's code and message. *)
val error_of_diags : Css_util.Diag.t list -> Css_util.Json.t

(** [errorf ~code fmt ...] is a one-diagnostic failure with [code]. *)
val errorf : code:string -> ('a, unit, string, Css_util.Json.t) format4 -> 'a

(** [error fmt ...] is {!errorf} with code [SRV-000]. *)
val error : ('a, unit, string, Css_util.Json.t) format4 -> 'a

val is_ok : Css_util.Json.t -> bool

(** [summary_of_result r] is the response form of a session result:
    stop reason, rollback/degradation status, iteration and edge
    counts, and the evaluator's WNS/TNS per corner as exact strings. *)
val summary_of_result : Css_flow.Session.result -> Css_util.Json.t

(** [signoff_diffs resp r] names the WNS/TNS fields of [resp]'s
    [result] that differ from {!summary_of_result}[ r]'s, or are missing. *)
val signoff_diffs : Css_util.Json.t -> Css_flow.Session.result -> string list

(** [latencies_json design] is every flip-flop's scheduled latency as
    [[{"ff": name, "latency": exact-string}, ...]], in {!Css_netlist.Design.ffs}
    order — the bitwise ECO-identity payload. *)
val latencies_json : Css_netlist.Design.t -> Css_util.Json.t
