(** The newline-framed wire format and the connection plumbing every
    serving component shares (docs/SERVING.md "Wire protocol"): the
    server's and the router's client sockets, the router's backend
    sockets, the supervisor's worker pipes and [asc client].

    A frame is one line: bytes up to a ['\n'], with one trailing ['\r']
    stripped; blank lines are skipped.  Client-facing connections cap an
    unterminated frame at {!max_frame} bytes; backend sockets and worker
    pipes are uncapped. *)

(** {1 Addresses and sockets} *)

type listen =
  | Unix_socket of string  (** Path; a stale socket file is replaced on bind. *)
  | Tcp of string * int  (** Host (name or dotted quad) and port. *)

(** ["path"] or ["host:port"], for logs and banners. *)
val to_string : listen -> string

(** A connected stream socket.  Raises [Unix.Unix_error], or
    [Invalid_argument] for a host name that does not resolve; no
    descriptor leaks. *)
val connect : listen -> Unix.file_descr

(** Close, ignoring errors (the descriptor may already be gone). *)
val close : Unix.file_descr -> unit

(** {1 Frames} *)

(** The client-facing frame cap: 8 MiB. *)
val max_frame : int

(** Write the compact JSON text and a newline in full (blocking).
    Raises [Unix.Unix_error]. *)
val send : Unix.file_descr -> Asc_util.Json.t -> unit

(** An incremental frame splitter over one byte stream.  It scans each
    byte once, however the stream is chunked. *)
type frames

(** A fresh, uncapped splitter. *)
val frames : unit -> frames

(** One [Unix.read] of up to 64 KiB into the splitter; returns the byte
    count, 0 at end of stream.  Raises [Unix.Unix_error]. *)
val read : Unix.file_descr -> frames -> int

(** [f] on every complete frame buffered, in order. *)
val iter_frames : frames -> (string -> unit) -> unit

(** Block until the next frame arrives.  [None] at end of stream or
    once the absolute [deadline] (a [Unix.gettimeofday] time) passes.
    Raises [Unix.Unix_error]. *)
val recv : ?deadline:float -> Unix.file_descr -> frames -> string option

(** One blocking round trip on a fresh connection: send the frame, wait
    for one response frame (until [deadline], if given), close.  Every
    connection-level failure is an [Error] with a readable message. *)
val request : ?deadline:float -> listen -> string -> (string, string) result

(** {1 Front: a listener and its client connections}

    The accept/read/reply loop [asc serve] and [asc route] both drive:
    client connections with capped framing (an oversize frame draws a
    [frame exceeds N bytes] error and closes the connection), the
    drain-on-shutdown handshake, and the counter totals that survive
    telemetry drains. *)

type conn

type front

(** The connection id, unique per front (the scheduler's source). *)
val cid : conn -> int

(** Bind the address.  [on_write] runs before every reply; an exception
    it raises fails that write like a socket error (chaos points hook in
    here). *)
val open_front : ?on_write:(unit -> unit) -> listen -> front

(** Write one response frame; a write failure closes the connection. *)
val reply : front -> conn -> Asc_util.Json.t -> unit

(** {!reply} to the connection with this id, if it is still open. *)
val answer : front -> int -> Asc_util.Json.t -> unit

val close_conn : front -> conn -> unit

(** The listener and every open connection (a forked child closes them). *)
val fds : front -> Unix.file_descr list

(** Handle a [shutdown] request: with nothing [outstanding] and no drain
    under way, answer now and stop; otherwise enter drain mode and defer
    the answer until {!run} sees the outstanding count reach zero. *)
val shutdown : front -> conn -> outstanding:int -> unit

(** A shutdown is waiting on outstanding work. *)
val draining : front -> bool

(** One unit of outstanding work finished; counted in the drain report
    while draining. *)
val finished : front -> unit

(** Work finished during the drain so far. *)
val drained : front -> int

(** Add counter deltas to the running totals. *)
val fold_counters : front -> (string * int) list -> unit

(** Drain [tel] (which resets it) into the totals; returns the drained
    span tracks. *)
val accumulate :
  front -> Asc_util.Telemetry.t option -> Asc_util.Telemetry.track list

(** A counter's running total (0 if never seen). *)
val counter : front -> string -> int

(** The select loop, until a shutdown completes.  Each turn waits up to
    [timeout ()] seconds on the listener, every connection and
    [extra_fds ()]; accepts, reads and splits client frames into
    [on_frame], and hands other readable descriptors to [on_extra]; then
    runs [tick] and answers a finished drain (once [outstanding ()] is
    0).  Exceptions from the callbacks propagate. *)
val run :
  front ->
  timeout:(unit -> float) ->
  extra_fds:(unit -> Unix.file_descr list) ->
  on_extra:(Unix.file_descr -> unit) ->
  on_frame:(conn -> string -> unit) ->
  tick:(unit -> unit) ->
  outstanding:(unit -> int) ->
  unit

(** Close every connection and the listener; unlink a Unix socket. *)
val close_front : front -> unit
