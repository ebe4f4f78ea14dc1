(* The serving daemon: a single-threaded select loop over a stream
   socket.  In-process mode drains the scheduler one job per iteration;
   supervised mode ([workers > 0]) forks a Supervisor fleet and the loop
   only dispatches and collects (docs/SERVING.md).

   Observability (docs/OBSERVABILITY.md "Serving metrics"): the server
   owns three latency histograms — queue wait, execution, end-to-end —
   recorded at each delivery from the job's submission/dispatch stamps;
   instantaneous gauges are computed at metrics time.  Both ride the
   version-2 [metrics] payload and the optional [--prom-file]
   exposition.  With [--trace], span buffers (the parent's own plus
   those each worker ships with its results, already re-based onto the
   parent's timeline) accumulate per process and are written as one
   stitched Chrome trace at exit.  None of this is consulted by any
   scheduling decision: results are byte-identical with observability
   on or off. *)

module J = Asc_util.Json
module Chaos = Asc_util.Chaos
module Telemetry = Asc_util.Telemetry
module Histogram = Asc_util.Histogram
module Log = Asc_util.Log

type config = { listen : Wire.listen; state_dir : string option }

type state = {
  sched : Scheduler.t;
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  log : Log.t option;
  trace_file : string option;
  mutable prom_file : string option;  (* None after a failed write *)
  started : float;
  front : Wire.front;
  waiting : (int, int * bool * int option) Hashtbl.t;
      (* job id -> (conn id, want tset, client-supplied id to echo) *)
  max_pending : int option;  (* echoed as gauges; enforced by the scheduler *)
  max_pending_per_source : int option;
  h_queue_wait : Histogram.t;  (* submit -> dispatch *)
  h_execute : Histogram.t;  (* dispatch -> delivery *)
  h_e2e : Histogram.t;  (* submit -> delivery *)
  mutable parent_tracks : Telemetry.track list;  (* preserved across drains *)
  worker_tracks : (int, Telemetry.track list) Hashtbl.t;  (* by worker pid *)
  mutable sup : Supervisor.t option;
  mutable prom_dirty : bool;  (* a delivery happened since the last write *)
}

(* Fold a fresh telemetry drain into the cumulative totals ([drain]
   resets the handle, so the server must aggregate to stay monotonic).
   When stitching a trace, the parent's span buffers — folded away with
   the drain before — are preserved the same way. *)
let accumulate state =
  let tracks = Wire.accumulate state.front state.tel in
  if state.trace_file <> None && tracks <> [] then
    state.parent_tracks <- state.parent_tracks @ tracks

let live_workers state =
  match state.sup with Some s -> Supervisor.live_count s | None -> 0

let metrics state =
  accumulate state;
  let counters =
    List.map
      (fun c ->
        let name = Telemetry.counter_name c in
        (name, Wire.counter state.front name))
      Telemetry.all_counters
  in
  let cap = function Some c -> float_of_int c | None -> 0.0 in
  let gauges =
    [
      ("queue_depth", float_of_int (Scheduler.pending state.sched));
      ("live_workers", float_of_int (live_workers state));
      ("uptime_seconds", Unix.gettimeofday () -. state.started);
      (* 0 = unbounded, so a dashboard can alert on queue_depth
         approaching a non-zero cap without a presence check. *)
      ("max_pending", cap state.max_pending);
      ("max_pending_per_source", cap state.max_pending_per_source);
    ]
  in
  let histograms =
    [
      ("job_queue_wait_seconds", state.h_queue_wait);
      ("job_execute_seconds", state.h_execute);
      ("job_e2e_seconds", state.h_e2e);
    ]
  in
  Protocol.metrics_response ~gauges ~histograms
    ~pending:(Scheduler.pending state.sched) ~counters ()

(* Rewrite the Prometheus exposition file ({!Asc_util.Durable.replace},
   so a scraper never reads a torn file and a failure leaves no temp
   file).  A sink failure warns once and disables further writes —
   observability never takes the server down. *)
let write_prom state =
  match state.prom_file with
  | None -> ()
  | Some path -> (
      match Protocol.prometheus_of_metrics (metrics state) with
      | Error _ -> ()
      | Ok text -> (
          try Asc_util.Durable.replace path text
          with Sys_error reason ->
            state.prom_file <- None;
            Printf.eprintf "asc: prometheus file %s: %s; disabling\n%!" path
              reason))

let busy_count state =
  match state.sup with Some s -> Supervisor.busy_count s | None -> 0

let outstanding state = Scheduler.pending state.sched + busy_count state

let handle_request state conn = function
  | Protocol.Ping -> Wire.reply state.front conn Protocol.ping_response
  | Protocol.Metrics -> Wire.reply state.front conn (metrics state)
  | Protocol.Shutdown ->
      (* Drain mode: queued and in-flight jobs finish first. *)
      Wire.shutdown state.front conn ~outstanding:(outstanding state)
  | Protocol.Submit { spec; want_tset; client_id } -> (
      if Wire.draining state.front then
        Wire.reply state.front conn
          (Protocol.error_response ~reason:"draining" ?id:client_id
             "server is draining for shutdown")
      else
        match Scheduler.submit state.sched ~source:(Wire.cid conn) spec with
        | Scheduler.Rejected message ->
            Wire.reply state.front conn
              (Protocol.error_response ?id:client_id message)
        | Scheduler.Overloaded { retry_after_ms } ->
            Wire.reply state.front conn
              (Protocol.error_response ~reason:"overloaded" ~retry_after_ms
                 ?id:client_id "server overloaded: queue is full")
        | Scheduler.Cached result ->
            Wire.reply state.front conn
              (Protocol.submit_response ~id:client_id ~cached:true ~want_tset
                 result)
        | Scheduler.Accepted job ->
            (* Deferred: the response is written when the job runs. *)
            Hashtbl.replace state.waiting job.Scheduler.j_id
              (Wire.cid conn, want_tset, client_id))

let handle_frame state conn line =
  try
    Chaos.hit state.chaos Chaos.serve_read;
    match Protocol.request_of_string line with
    | Error message ->
        Wire.reply state.front conn (Protocol.error_response message)
    | Ok request -> handle_request state conn request
  with
  | Chaos.Killed _ as e -> raise e
  | Sys_error _ -> Wire.close_conn state.front conn

(* Deliver one finished job's response to its submitter, if the
   connection is still around.  Delivery is where the latency
   histograms are fed — the only consumer of the job's
   submission/dispatch stamps — and where the lifecycle event for the
   outcome is logged. *)
let deliver state (job, result) =
  let now = Unix.gettimeofday () in
  if job.Scheduler.j_dispatched > 0.0 then begin
    Histogram.record state.h_queue_wait
      (job.Scheduler.j_dispatched -. job.Scheduler.j_submitted);
    Histogram.record state.h_execute (now -. job.Scheduler.j_dispatched)
  end;
  Histogram.record state.h_e2e (now -. job.Scheduler.j_submitted);
  let event, level =
    match result.Scheduler.r_status with
    | Scheduler.Complete -> ("job.completed", Log.Info)
    | Scheduler.Partial _ -> ("job.partial", Log.Warn)
    | Scheduler.Failed _ -> ("job.failed", Log.Error)
  in
  Log.emit state.log event ~level ~job:job.Scheduler.j_key
    ~fields:
      [
        ("id", J.Int job.Scheduler.j_id);
        ("tests", J.Int result.Scheduler.r_tests);
        ("detected", J.Int result.Scheduler.r_detected);
        ("seconds", J.Float (now -. job.Scheduler.j_submitted));
      ];
  state.prom_dirty <- true;
  Wire.finished state.front;
  match Hashtbl.find_opt state.waiting job.Scheduler.j_id with
  | None -> ()
  | Some (cid, want_tset, client_id) ->
      Hashtbl.remove state.waiting job.Scheduler.j_id;
      (* The response id is the client's correlation id when the request
         carried one (pipelined clients, the shard router), the server's
         job id otherwise. *)
      let id = Some (Option.value client_id ~default:job.Scheduler.j_id) in
      Wire.answer state.front cid
        (Protocol.submit_response ~id ~cached:false ~want_tset result)

(* Collect supervised results: fold each worker's telemetry drain into
   the cumulative table (so [metrics] reflects multi-worker runs), keep
   its span tracks by worker pid when stitching a trace, persist the
   result, answer the submitter. *)
let collect_supervised state sup =
  List.iter
    (fun (o : Supervisor.outcome) ->
      Wire.fold_counters state.front o.Supervisor.o_counters;
      if o.Supervisor.o_tracks <> [] && o.Supervisor.o_worker_pid > 0 then begin
        let pid = o.Supervisor.o_worker_pid in
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt state.worker_tracks pid)
        in
        Hashtbl.replace state.worker_tracks pid (prev @ o.Supervisor.o_tracks)
      end;
      Scheduler.cache_store state.sched ~key:o.Supervisor.o_job.Scheduler.j_key
        o.Supervisor.o_result;
      deliver state (o.Supervisor.o_job, o.Supervisor.o_result))
    (Supervisor.take_results sup)

(* One stitched Chrome trace for the whole fleet: the parent process
   first (its own spans — everything in-process mode ran, or just the
   select loop's in supervised mode), then one process per worker pid
   in pid order.  A respawned slot has a fresh pid, so its spans land
   on their own process track. *)
let write_trace state =
  match state.trace_file with
  | None -> ()
  | Some path -> (
      accumulate state;
      let parent_name = if state.sup = None then "asc" else "asc supervisor" in
      let workers =
        List.sort compare
          (Hashtbl.fold
             (fun pid tracks acc -> (pid, "asc worker", tracks) :: acc)
             state.worker_tracks [])
      in
      let doc =
        Telemetry.stitched_trace_json
          ((Unix.getpid (), parent_name, state.parent_tracks) :: workers)
      in
      try Asc_util.Durable.replace path (J.to_string doc ^ "\n")
      with Sys_error reason ->
        Printf.eprintf "asc: trace file %s: %s; trace dropped\n%!" path reason)

let serve ?pool ?tel ?chaos ?log ?trace_file ?prom_file ?on_ready ?(workers = 0)
    ?job_retries ?make_pool ?max_pending ?max_pending_per_source ?hb_stale
    config =
  (* A client that disconnects mid-write must not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if workers > 0 && pool <> None then
    invalid_arg "Server.serve: a supervised parent must not own a pool";
  let sched =
    Scheduler.create ?pool ?tel ?chaos ?log ?state_dir:config.state_dir
      ?max_pending ?max_pending_per_source ()
  in
  (* Every response write passes serve.write: a [Fail] there closes the
     connection like a client gone; [Kill] propagates like a crash. *)
  let front =
    Wire.open_front
      ~on_write:(fun () -> Chaos.hit chaos Chaos.serve_write)
      config.listen
  in
  let state =
    {
      sched;
      tel;
      chaos;
      log;
      trace_file;
      prom_file;
      started = Unix.gettimeofday ();
      front;
      waiting = Hashtbl.create 16;
      max_pending;
      max_pending_per_source;
      h_queue_wait = Histogram.create ();
      h_execute = Histogram.create ();
      h_e2e = Histogram.create ();
      parent_tracks = [];
      worker_tracks = Hashtbl.create 8;
      sup = None;
      prom_dirty = false;
    }
  in
  if workers > 0 then
    state.sup <-
      Some
        (Supervisor.create ?tel ?chaos ?log ~trace:(trace_file <> None)
           ?state_dir:config.state_dir ?job_retries ?hb_stale ?make_pool
           ~on_child_fork:(fun () ->
             (* Children must not hold the server's sockets: a stray
                duplicate would keep client connections half-open past
                the parent's close. *)
             List.iter Wire.close (Wire.fds front))
           ~workers ());
  Log.emit log "server.start"
    ~fields:
      [
        ("workers", J.Int workers);
        ("listen", J.Str (Wire.to_string config.listen));
      ];
  write_prom state;
  Option.iter (fun f -> f ()) on_ready;
  Fun.protect
    ~finally:(fun () ->
      Option.iter Supervisor.stop state.sup;
      Log.emit log "server.shutdown"
        ~fields:[ ("drained", J.Int (Wire.drained front)) ];
      write_prom state;
      write_trace state;
      Wire.close_front front)
    (fun () ->
      Wire.run front
        ~timeout:(fun () ->
          (* Service the socket first — zero timeout when a dispatch can
             happen right now so a burst of submissions lands before
             it. *)
          let dispatch_ready =
            Scheduler.pending sched > 0
            &&
            match state.sup with
            | None -> true
            | Some s ->
                Supervisor.live_count s - Supervisor.busy_count s > 0
                || (Supervisor.all_retired s && Supervisor.live_count s = 0)
          in
          if dispatch_ready then 0.0 else 0.2)
        ~extra_fds:(fun () ->
          match state.sup with Some s -> Supervisor.fds s | None -> [])
        ~on_extra:(fun fd ->
          Option.iter
            (fun s -> Supervisor.handle_readable s ~sched fd)
            state.sup)
        ~on_frame:(handle_frame state)
        ~outstanding:(fun () -> outstanding state)
        ~tick:(fun () ->
          (match state.sup with
          | None ->
              (* In-process mode: run exactly one queued job to
                 completion. *)
              Option.iter (deliver state) (Scheduler.run_next sched)
          | Some s ->
              Supervisor.pump s ~sched;
              if Supervisor.all_retired s && Supervisor.live_count s = 0 then
                (* Every slot burned its restart budget: degrade to
                   in-process execution (no pool in the parent, so
                   single-domain — still bit-identical). *)
                Option.iter (deliver state) (Scheduler.run_next sched)
              else Supervisor.dispatch s ~sched;
              collect_supervised state s);
          (* Deadline-expired jobs dropped by [pick] still owe their
             submitters a (partial) response. *)
          List.iter (deliver state) (Scheduler.take_shed sched);
          if state.prom_dirty then begin
            state.prom_dirty <- false;
            write_prom state
          end))
