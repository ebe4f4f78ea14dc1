(** The one owner of durable-file mechanics (docs/ROBUSTNESS.md), used by
    checkpoints, the persistent result cache, the event log's rotation,
    the Prometheus file and every whole-file writer.  Callers keep their codecs and failure
    policies, and fire their own chaos points through the hooks. *)

(** What {!replace} and {!rotate} announce to their [step] hook,
    immediately before each syscall: [Open] the temp file, [Output] the
    text, [Rename] it into place, and [Rotate] once per rotation rename. *)
type step = Open | Output | Rename | Rotate

(** The whole file, read in binary mode.  [after_open] runs between
    opening and reading; if it raises {!Chaos.Killed} the channel stays
    open, as after a SIGKILL. *)
val read_file : ?after_open:(unit -> unit) -> string -> string

(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755). *)
val mkdir_p : string -> unit

(** [replace ?step ?keep ?retries ?on_failure path text] writes
    [path ^ ".tmp"], then renames it over [path].  Before the first
    attempt, {!rotate} keeps [keep] generations (default 1).  A
    [Sys_error] runs [on_failure] and is retried after 2 ms, 4 ms, … up
    to [retries] times (default 0), then re-raised.  Every failed attempt
    removes its temp file, except on {!Chaos.Killed}, which propagates at
    once and leaves disk as a SIGKILL would. *)
val replace :
  ?step:(step -> unit) ->
  ?keep:int ->
  ?retries:int ->
  ?on_failure:(unit -> unit) ->
  string ->
  string ->
  unit

(** [rotate ?step ~keep path] renames [path.(k)] to [path.(k+1)] for
    [k = keep-2 … 1] (skipping missing ones), then [path] to [path.1]:
    one atomic rename each.  A no-op when [keep <= 1] or [path] is
    missing. *)
val rotate : ?step:(step -> unit) -> keep:int -> string -> unit

(** The numbered copies [path.1], [path.2], … that exist, newest (lowest
    number) first.  Gaps are skipped: a crash between two rotation
    renames can leave [path.2] without [path.1]. *)
val copies : string -> string list

(** [seal body] appends [crc <8 hex digits>\n], the CRC-32 of [body]. *)
val seal : string -> string

(** [Ok body] when the text is exactly [seal body]; [Error] on a missing,
    malformed or mismatching trailer, or any byte after it. *)
val unseal : string -> (string, string) result
