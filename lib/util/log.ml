(* Structured event log: line-delimited JSON with size-based rotation.

   A log handle follows the [?tel]/[?chaos] ownership rule: the top-level
   driver creates it (from --log-file) and threads it downward as
   [?log : t option]; library code only emits into it, and the disabled
   handle costs one branch per site.

   Events are one JSON object per line — timestamp, level, event name,
   optional job key, free-form extra fields — so the file is greppable
   and `python -c "json.loads(line)"`-checkable (the CI scrape-smoke job
   does exactly that).  Rotation is {!Durable.rotate}, the checkpoint
   writer's (docs/ROBUSTNESS.md): when a write would push the file past
   [max_bytes], existing copies are promoted <file>.(k) -> <file>.(k+1)
   by atomic renames and the log reopens a fresh <file>.

   Observability must never take the service down: any write failure (a
   full disk, a closed fd, an injected [log.write] chaos Fail) degrades
   the handle — one warning on stderr, every subsequent event dropped and
   counted in the [log_write_failures] telemetry counter — and never
   raises into the select loop.  Only [Chaos.Killed] (a simulated hard
   crash) propagates. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* --- Event codec -------------------------------------------------------- *)

type event = {
  ev_ts : float; (* Unix.gettimeofday *)
  ev_level : level;
  ev_event : string; (* e.g. "job.completed", "worker.crash" *)
  ev_job : string option; (* content-hash job key, when job-scoped *)
  ev_fields : (string * Json.t) list; (* extra members, event-specific *)
}

let reserved = [ "ts"; "level"; "event"; "job" ]

let event_to_json e =
  [
    ("ts", Json.Float e.ev_ts);
    ("level", Json.Str (level_name e.ev_level));
    ("event", Json.Str e.ev_event);
  ]
  @ (match e.ev_job with None -> [] | Some k -> [ ("job", Json.Str k) ])
  @ List.filter (fun (k, _) -> not (List.mem k reserved)) e.ev_fields
  |> fun members -> Json.Obj members

let event_of_json json =
  let ( let* ) r f = Result.bind r f in
  let str name =
    match Option.bind (Json.member name json) Json.as_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "event lacks string %S" name)
  in
  let* ts =
    match Option.bind (Json.member "ts" json) Json.as_float with
    | Some t -> Ok t
    | None -> Error "event lacks float \"ts\""
  in
  let* level_s = str "level" in
  let* level =
    match level_of_string level_s with
    | Some l -> Ok l
    | None -> Error (Printf.sprintf "unknown level %S" level_s)
  in
  let* name = str "event" in
  let job = Option.bind (Json.member "job" json) Json.as_str in
  let* members =
    match Json.as_obj json with
    | Some m -> Ok m
    | None -> Error "event is not an object"
  in
  let fields = List.filter (fun (k, _) -> not (List.mem k reserved)) members in
  Ok { ev_ts = ts; ev_level = level; ev_event = name; ev_job = job; ev_fields = fields }

(* --- Handle ------------------------------------------------------------- *)

type t = {
  path : string;
  threshold : level;
  max_bytes : int;
  keep : int;
  tel : Telemetry.t option;
  chaos : Chaos.t option;
  mutable oc : out_channel option; (* None once degraded *)
  mutable size : int; (* bytes written to the current file *)
  mutable failures : int; (* events dropped after a write failure *)
}

let create ?(level = Info) ?(max_bytes = 8 * 1024 * 1024) ?(keep = 2) ?tel
    ?chaos path =
  if max_bytes <= 0 then invalid_arg "Log.create: max_bytes must be positive";
  if keep < 1 then invalid_arg "Log.create: keep must be >= 1";
  match open_out_gen [ Open_append; Open_creat ] 0o644 path with
  | oc ->
      {
        path;
        threshold = level;
        max_bytes;
        keep;
        tel;
        chaos;
        oc = Some oc;
        size = out_channel_length oc;
        failures = 0;
      }
  | exception Sys_error m ->
      Printf.eprintf "asc: event log %s: %s; events will be dropped\n%!" path m;
      Telemetry.incr tel Telemetry.Log_write_failures;
      {
        path;
        threshold = level;
        max_bytes;
        keep;
        tel;
        chaos;
        oc = None;
        size = 0;
        failures = 1;
      }

let write_failures t = t.failures

let enabled log lvl =
  match log with
  | None -> false
  | Some t -> t.oc <> None && level_rank lvl >= level_rank t.threshold

(* Promote existing copies one suffix up, then reopen a fresh file.  No
   chaos points here: the log has its own single [log.write] point at the
   emit site. *)
let rotate t oc =
  close_out oc;
  if t.keep > 1 then Durable.rotate ~keep:t.keep t.path else Sys.remove t.path;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 t.path in
  t.oc <- Some oc;
  t.size <- 0;
  oc

let degrade t reason =
  (match t.oc with
  | Some oc -> (
      t.oc <- None;
      try close_out oc with Sys_error _ -> ())
  | None -> ());
  Printf.eprintf "asc: event log %s: %s; dropping further events\n%!" t.path
    reason

let drop t =
  t.failures <- t.failures + 1;
  Telemetry.incr t.tel Telemetry.Log_write_failures

let emit ?(level = Info) ?job ?(fields = []) log name =
  match log with
  | None -> ()
  | Some t when level_rank level < level_rank t.threshold -> ()
  | Some t -> (
      match t.oc with
      | None -> drop t
      | Some oc -> (
          let e =
            {
              ev_ts = Unix.gettimeofday ();
              ev_level = level;
              ev_event = name;
              ev_job = job;
              ev_fields = fields;
            }
          in
          let line = Json.to_string ~compact:true (event_to_json e) ^ "\n" in
          match
            Chaos.hit t.chaos Chaos.log_write;
            let oc =
              if t.size + String.length line > t.max_bytes && t.size > 0 then
                rotate t oc
              else oc
            in
            output_string oc line;
            flush oc
          with
          | () -> t.size <- t.size + String.length line
          | exception (Chaos.Killed _ as e) -> raise e
          | exception Sys_error m ->
              degrade t m;
              drop t
          | exception Unix.Unix_error (err, _, _) ->
              degrade t (Unix.error_message err);
              drop t))

let close log =
  match log with
  | None -> ()
  | Some t -> (
      match t.oc with
      | None -> ()
      | Some oc -> (
          t.oc <- None;
          try close_out oc with Sys_error _ -> ()))
