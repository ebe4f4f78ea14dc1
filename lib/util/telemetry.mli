(** Span tracing, engine counters and per-domain utilization metrics.

    A telemetry handle follows the same ownership rule as {!Budget} and
    {!Domain_pool}: the top-level driver creates it, threads it downward
    as [?tel : t option], and drains it when the run is over.  Library
    code only records into it.

    Every recording operation takes the handle as an [option] and is a
    no-op — one branch, no lock, no clock read — when the handle is
    [None], so instrumentation never costs anything when disabled and
    never influences results (enabled, it only reads the clock and
    appends to per-domain buffers).

    Each domain writes its own buffer (found via domain-local storage),
    so recording is safe from any domain without synchronisation;
    {!drain} merges the buffers into an immutable {!snapshot} and resets
    them.  Call it from the driver when no pool job is in flight. *)

type t

val create : unit -> t

(** [Unix.gettimeofday] at handle creation; every event timestamp is
    relative to it.  Lets a supervisor re-base spans shipped by worker
    processes (whose handles have their own origins) onto one timeline. *)
val origin : t -> float

(** {1 Counters}

    Monotonic event counters, merged across domains on {!drain}.  Bump
    them at fault-group / chunk granularity, not per simulated cycle. *)

type counter =
  | Faults_simulated  (** fault lanes swept by a fault-simulation kernel *)
  | Good_cycles  (** fault-free engine evaluations (one per time unit) *)
  | Faulty_cycles  (** faulty-machine engine evaluations (group x cycle) *)
  | Fault_detections  (** (fault, test) detection events observed *)
  | Podem_decisions  (** PODEM decision-loop rounds *)
  | Podem_backtracks
  | Podem_aborts
  | Podem_redundant
  | Podem_tests
  | Budget_polls  (** budget poll points reached by instrumented kernels *)
  | Checkpoint_writes
  | Checkpoint_write_failures  (** failed checkpoint write attempts *)
  | Checkpoint_recoveries  (** checkpoint loads that fell back to a rotated copy *)
  | Chaos_injections  (** faults injected by an armed {!Chaos} handle *)
  | Pool_tasks  (** pool tasks claimed (parallel jobs only) *)
  | Tgen_candidates  (** candidate segments scored by a T0 generator *)
  | Tgen_commits  (** candidate segments committed *)
  | Trace_cache_hits  (** good-machine trace cache hits *)
  | Trace_cache_misses  (** good-machine trace cache misses (trace computed) *)
  | Cone_gates_evaluated  (** gates evaluated by the levelized cone kernel *)
  | Jobs_submitted  (** jobs accepted by the serving scheduler *)
  | Jobs_completed  (** served jobs that ran to a Complete result *)
  | Jobs_partial  (** served jobs returned Partial (deadline/cancel) *)
  | Jobs_failed  (** served jobs rejected or failed during execution *)
  | Jobs_resumed  (** served jobs that resumed from a checkpoint *)
  | Result_cache_hits  (** served submissions answered from the result cache *)
  | Result_cache_misses  (** served submissions that had to compute *)
  | Worker_restarts  (** worker processes restarted by the supervisor *)
  | Jobs_requeued  (** in-flight jobs requeued after a worker crash *)
  | Worker_crashes  (** worker exits the supervisor classed as crashes *)
  | Result_cache_persisted_hits
      (** result-cache hits served from the on-disk store *)
  | Log_write_failures
      (** event-log lines dropped because the sink could not be written *)
  | Jobs_shed  (** queued jobs dropped because their deadline already expired *)
  | Jobs_rejected_overload
      (** submissions refused at admission because a queue cap was hit *)
  | Router_failovers  (** router submits re-hashed to the next live shard *)
  | Router_markdowns  (** backends the router marked down after a failure *)
  | Router_markups  (** marked-down backends the router restored to service *)

val counter_name : counter -> string

(** The full counter catalogue, in snapshot order. *)
val all_counters : counter list

(** [add tel c n] adds [n] to counter [c] on the calling domain's buffer;
    no-op when [tel] is [None]. *)
val add : t option -> counter -> int -> unit

val incr : t option -> counter -> unit

(** {1 Spans} *)

(** [span tel ?args name f] runs [f ()] bracketed by a begin/end pair on
    the calling domain's track; the end event is recorded even when [f]
    raises.  [args] become the trace event's arguments.  When [tel] is
    [None] this is exactly [f ()]. *)
val span : t option -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** The span name {!Domain_pool} records around each claimed task;
    {!pool_loads} keys on it. *)
val pool_task_name : string

(** {1 Snapshots} *)

type event =
  | Begin of { name : string; ts : float; args : (string * string) list }
  | End of { name : string; ts : float }

type track = { dom : int; events : event list (* chronological *) }

type snapshot = {
  duration : float; (* seconds from handle creation to the drain *)
  counters : (string * int) list; (* full catalogue, merged across domains *)
  tracks : track list; (* sorted by domain id *)
}

(** Merge every domain's buffer into a snapshot and reset the buffers.
    Call when no pool job is in flight. *)
val drain : t -> snapshot

(** Value of a counter by {!counter_name} (0 when absent). *)
val counter_value : snapshot -> string -> int

(** {1 Derived metrics} *)

type span_record = {
  s_name : string;
  s_dom : int;
  s_begin : float;
  s_end : float;
  s_depth : int; (* nesting depth within its track, 0 = outermost *)
  s_args : (string * string) list;
  s_shadowed : bool; (* an enclosing span on this track has the same name *)
}

(** Paired spans of every track, in begin order per track. *)
val spans : snapshot -> span_record list

(** Every track brackets properly: no end without a begin, nothing left
    open. *)
val balanced : snapshot -> bool

type span_total = { t_name : string; t_seconds : float; t_count : int }

(** Wall seconds and occurrence count per span name (spans shadowed by a
    same-named ancestor are excluded, so recursion cannot double-count). *)
val span_totals : snapshot -> span_total list

val span_seconds : snapshot -> string -> float

type load = {
  l_dom : int;
  l_tasks : int; (* pool tasks claimed by this domain *)
  l_busy : float; (* seconds inside task spans *)
  l_util : float; (* busy seconds / parallel-window duration *)
}

(** Per-domain utilization computed from {!pool_task_name} spans over the
    parallel window (first task claim to last task completion).  Empty
    when the run never dispatched a parallel job. *)
val pool_loads : snapshot -> load list

(** Busiest domain's busy seconds over the mean — 1.0 is perfect balance;
    1.0 also for empty/idle load lists. *)
val imbalance : load list -> float

(** {1 Export} *)

(** The snapshot as a Chrome trace-event JSON document (one track per
    domain; loads in Perfetto and chrome://tracing). *)
val trace_json : snapshot -> Json.t

(** [stitched_trace_json [(pid, name, tracks); ...]] is one trace
    document spanning several processes — a supervisor plus its workers —
    each rendered as a Perfetto process with one thread per domain track.
    All timestamps must already be on one timeline (see {!origin}). *)
val stitched_trace_json : (int * string * track list) list -> Json.t

(** Span names {!metrics_json} reports under ["phases"]. *)
val phase_names : string list

(** The run-summary metrics object: wall seconds, per-phase seconds,
    counters, per-domain utilization, imbalance. *)
val metrics_json : snapshot -> Json.t
