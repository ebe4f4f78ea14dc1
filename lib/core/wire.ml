(* Newline-framed connections: addresses, the frame splitter, and the
   accept/read/reply loop the server and the router share
   (docs/SERVING.md). *)

module J = Asc_util.Json
module Telemetry = Asc_util.Telemetry

type listen = Unix_socket of string | Tcp of string * int

let to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      invalid_arg (Printf.sprintf "cannot resolve host %S" host))

let sockaddr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve_host host, port))

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let bind addr =
  (match addr with
  | Unix_socket path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain, sa = sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sa;
  Unix.listen fd 16;
  fd

let connect addr =
  let domain, sa = sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sa
   with e ->
     close fd;
     raise e);
  fd

(* --- Frames -------------------------------------------------------------- *)

let max_frame = 8 * 1024 * 1024

let write_frame fd line =
  let s = line ^ "\n" in
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let send fd json = write_frame fd (J.to_string ~compact:true json)

(* The unconsumed stream is [data.[start .. stop)]; [scan] marks how far
   it is known to hold no newline, so no byte is searched twice. *)
type frames = {
  cap : int;
  mutable data : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable scan : int;
}

let capped cap = { cap; data = Bytes.empty; start = 0; stop = 0; scan = 0 }
let frames () = capped max_int

(* Room for [n] more bytes at [stop]: slide the unconsumed bytes to the
   front, growing the buffer when they do not fit. *)
let reserve f n =
  if f.stop + n > Bytes.length f.data then begin
    let live = f.stop - f.start in
    let data =
      if live + n <= Bytes.length f.data then f.data
      else Bytes.create (max (live + n) (2 * Bytes.length f.data))
    in
    Bytes.blit f.data f.start data 0 live;
    f.data <- data;
    f.scan <- f.scan - f.start;
    f.start <- 0;
    f.stop <- live
  end

let chunk = 65536

let read fd f =
  reserve f chunk;
  let n = Unix.read fd f.data f.stop chunk in
  f.stop <- f.stop + n;
  n

let rec newline f i =
  if i >= f.stop then None
  else if Bytes.get f.data i = '\n' then Some i
  else newline f (i + 1)

let rec next f =
  match newline f f.scan with
  | Some i ->
      let stop =
        if i > f.start && Bytes.get f.data (i - 1) = '\r' then i - 1 else i
      in
      let line = Bytes.sub_string f.data f.start (stop - f.start) in
      f.start <- i + 1;
      f.scan <- i + 1;
      if line = "" then next f else Some line
  | None ->
      if f.start = f.stop then begin
        f.start <- 0;
        f.stop <- 0
      end;
      f.scan <- f.stop;
      None

let rec iter_frames f g =
  match next f with
  | Some line ->
      g line;
      iter_frames f g
  | None -> ()

let oversize f = f.stop - f.start > f.cap

let rec recv ?deadline fd f =
  match next f with
  | Some _ as line -> line
  | None ->
      let ready =
        match deadline with
        | None -> true
        | Some d -> (
            let remaining = d -. Unix.gettimeofday () in
            remaining > 0.0
            && match Unix.select [ fd ] [] [] remaining with
               | [], _, _ -> false
               | _ -> true)
      in
      if ready && read fd f > 0 then recv ?deadline fd f else None

let request ?deadline addr line =
  match connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("cannot connect: " ^ Unix.error_message e)
  | exception Invalid_argument message -> Error ("cannot connect: " ^ message)
  | fd -> (
      Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
      match
        write_frame fd line;
        recv ?deadline fd (frames ())
      with
      | Some response -> Ok response
      | None when deadline <> None -> Error "no response before the deadline"
      | None -> Error "server closed the connection"
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

(* --- Front --------------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  buf : frames;
  mutable alive : bool;
}

type front = {
  addr : listen;
  listener : Unix.file_descr;
  on_write : unit -> unit;
  conns : (int, conn) Hashtbl.t;
  totals : (string, int) Hashtbl.t;  (* counters across telemetry drains *)
  mutable next_cid : int;
  mutable running : bool;
  mutable draining : bool;  (* shutdown received with work outstanding *)
  mutable drained : int;  (* work finished during the drain *)
  mutable shutdown_waiters : int list;  (* conns owed a shutdown response *)
}

let cid c = c.cid

let open_front ?(on_write = ignore) addr =
  {
    addr;
    listener = bind addr;
    on_write;
    conns = Hashtbl.create 16;
    totals = Hashtbl.create 64;
    next_cid = 0;
    running = true;
    draining = false;
    drained = 0;
    shutdown_waiters = [];
  }

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Hashtbl.remove t.conns c.cid;
    close c.fd
  end

let reply t c json =
  try
    t.on_write ();
    send c.fd json
  with Unix.Unix_error _ | Sys_error _ -> close_conn t c

let answer t cid json =
  match Hashtbl.find_opt t.conns cid with
  | Some c when c.alive -> reply t c json
  | _ -> ()

let fds t = t.listener :: Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []

let shutdown t c ~outstanding =
  if outstanding = 0 && not t.draining then begin
    reply t c (Protocol.shutdown_response ~drained:t.drained);
    t.running <- false
  end
  else begin
    t.draining <- true;
    t.shutdown_waiters <- c.cid :: t.shutdown_waiters
  end

let draining t = t.draining
let finished t = if t.draining then t.drained <- t.drained + 1
let drained t = t.drained

let fold_counters t counters =
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt t.totals k) in
      Hashtbl.replace t.totals k (prev + v))
    counters

let accumulate t = function
  | None -> []
  | Some tel ->
      let snap = Telemetry.drain tel in
      fold_counters t snap.Telemetry.counters;
      snap.Telemetry.tracks

let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.totals name)

let accept t =
  match Unix.accept t.listener with
  | fd, _ ->
      let c =
        { fd; cid = t.next_cid; buf = capped max_frame; alive = true }
      in
      t.next_cid <- t.next_cid + 1;
      Hashtbl.replace t.conns c.cid c
  | exception Unix.Unix_error _ -> ()

let read_conn t c on_frame =
  match read c.fd c.buf with
  | 0 -> close_conn t c
  | _ ->
      (* Frames behind one that closed the connection are dropped. *)
      iter_frames c.buf (fun line -> if c.alive then on_frame c line);
      if c.alive && oversize c.buf then begin
        reply t c
          (Protocol.error_response
             (Printf.sprintf "frame exceeds %d bytes" max_frame));
        close_conn t c
      end
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Drain complete: answer every shutdown in arrival order, then stop. *)
let finish_drain t ~outstanding =
  if t.draining && outstanding () = 0 then begin
    List.iter
      (fun cid -> answer t cid (Protocol.shutdown_response ~drained:t.drained))
      (List.rev t.shutdown_waiters);
    t.shutdown_waiters <- [];
    t.running <- false
  end

let run t ~timeout ~extra_fds ~on_extra ~on_frame ~tick ~outstanding =
  while t.running do
    let timeout = timeout () in
    let readable =
      match Unix.select (fds t @ extra_fds ()) [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        if t.running then
          if fd == t.listener then accept t
          else
            match
              Hashtbl.fold
                (fun _ c acc -> if c.fd == fd then Some c else acc)
                t.conns None
            with
            | Some c -> read_conn t c on_frame
            | None -> on_extra fd)
      readable;
    if t.running then begin
      tick ();
      finish_drain t ~outstanding
    end
  done

let close_front t =
  Hashtbl.iter (fun _ c -> close_conn t c) (Hashtbl.copy t.conns);
  close t.listener;
  match t.addr with
  | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ()
