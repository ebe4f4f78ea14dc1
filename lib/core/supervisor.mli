(** Supervised multi-worker job execution for [asc serve --workers N]
    (docs/SERVING.md, "Process model & failure semantics").

    The supervisor forks [workers] processes, each running the existing
    single-threaded job loop with its own domain pool, and gives the
    parent a dispatch/collect interface that plugs into the server's
    select loop: {!fds} to watch, {!handle_readable} on activity,
    {!dispatch} to hand queued jobs to idle workers, {!pump} to reap
    crashes and respawn with exponential backoff, {!take_results} to
    collect finished jobs.

    Bit-identity is preserved: each job runs on exactly one worker with
    a deterministic pool, so a supervised result is byte-identical to
    in-process serving and to the one-shot CLI.

    Failure semantics: a worker crash requeues its in-flight job, up to
    [job_retries] total dispatch attempts per job — past that the job
    fails cleanly with a typed [Failed "worker_crash"] result.  A slot
    restarts with full-jitter exponential backoff (uniform in
    [\[0, backoff_base · 2{^restarts}\]], capped at 5 s —
    {!Asc_util.Backoff.full_jitter}, so slots killed by one event don't
    respawn in lockstep) up to [restart_limit] times, then is retired;
    when every slot is retired ({!all_retired}), the caller should
    degrade to in-process execution.  Idle workers heartbeat about once
    a second and are killed/respawned when silent past [hb_stale]
    seconds; busy workers don't heartbeat (they block in the job,
    bounded by its budget) — but a busy worker that overruns its job's
    deadline by more than [hb_stale] has stopped polling entirely
    (SIGSTOP, livelock) and is killed/respawned the same way, its job
    requeued against the retry budget.

    Telemetry (parent side): [worker_crashes], [jobs_requeued],
    [worker_restarts], and [jobs_failed] when a retry budget exhausts.
    Worker-side counters arrive with each result via {!take_results} for
    the server to fold into its cumulative table. *)

type t

(** One finished job as the parent collects it.  [o_counters] is the
    worker's telemetry drain (nonzero counters only) for the server to
    fold into the fleet table.  [o_tracks] carries the worker's span
    buffers — already re-based onto the parent telemetry timeline — and
    is nonempty only when the supervisor was created with
    [~trace:true]; [o_worker_pid]/[o_worker_slot] identify the process
    that ran the job ([-1] when none did, e.g. a retry-budget
    exhaustion synthesised by the parent). *)
type outcome = {
  o_job : Scheduler.job;
  o_result : Scheduler.result;
  o_counters : (string * int) list;
  o_worker_pid : int;
  o_worker_slot : int;
  o_tracks : Asc_util.Telemetry.track list;
}

(** [create ~workers ()] forks the initial fleet.  [make_pool] runs {e in
    the child} after fork to build the worker-private domain pool
    (domains do not survive fork, so the parent of a supervised server
    must not own a pool); it receives the worker's own telemetry handle
    so pool task counters and spans land in the drains the worker ships
    with its results.  [on_child_fork] also runs in the child, for
    the server to close its listener and client sockets.  [state_dir]
    gives workers per-job checkpoint/resume; workers never write the
    result-cache files (the parent is the single writer).  [chaos] arms
    [worker.fork] and [supervisor.dispatch] in the parent and is
    inherited by workers across fork for in-worker points.

    [log] receives structured lifecycle events in the parent
    ([worker.start] / [worker.restart] / [worker.crash] /
    [worker.retired] / [job.dispatched] / [job.requeued]) — workers
    never write the event log, so lines cannot interleave.  [trace]
    (default [false]) makes each worker ship its span buffers with
    every result, re-based worker-side onto the parent's telemetry
    timeline so the server can stitch one fleet-wide trace; off, span
    buffers are folded away with the drain as before. *)
val create :
  ?tel:Asc_util.Telemetry.t ->
  ?chaos:Asc_util.Chaos.t ->
  ?log:Asc_util.Log.t ->
  ?trace:bool ->
  ?state_dir:string ->
  ?job_retries:int ->
  ?restart_limit:int ->
  ?backoff_base:float ->
  ?hb_stale:float ->
  ?make_pool:(tel:Asc_util.Telemetry.t -> Asc_util.Domain_pool.t option) ->
  ?on_child_fork:(unit -> unit) ->
  workers:int ->
  unit ->
  t

(** Event-channel fds of live workers, for the server's select set. *)
val fds : t -> Unix.file_descr list

(** Service one readable worker fd: buffer frames, record heartbeats,
    collect results; EOF reaps the worker, requeues its in-flight job on
    [sched] (or fails it past the retry budget) and schedules a respawn. *)
val handle_readable : t -> sched:Scheduler.t -> Unix.file_descr -> unit

(** Hand queued jobs ({!Scheduler.pick}) to idle workers, one in-flight
    job per worker, until either runs out. *)
val dispatch : t -> sched:Scheduler.t -> unit

(** Housekeeping, called once per loop turn: respawn dead slots whose
    backoff expired (retiring those out of restart budget) and replace
    idle workers with stale heartbeats. *)
val pump : t -> sched:Scheduler.t -> unit

(** Finished jobs since the last call — see {!outcome}. *)
val take_results : t -> outcome list

(** Workers currently executing a job — the drain-mode exit gate. *)
val busy_count : t -> int

val live_count : t -> int

(** Every slot exhausted its restart budget: degrade to in-process
    execution. *)
val all_retired : t -> bool

(** Orderly shutdown: close job channels (workers exit on EOF) and reap
    every child.  In-flight work is abandoned — drain first. *)
val stop : t -> unit
