(* The serve-fleet system under test: [asc route] in front of two
   [asc serve --workers 1 --domains 1] shards, each with its own state
   directory, all talking over Unix sockets inside the run directory.
   Two compute processes at one domain each never exceed a 2-core host. *)

module J = Asc_util.Json
module Loadgen = Perfbench.Loadgen

type t = {
  dir : string;
  router : int;
  shards : int list;
  front : string;  (** The router's socket. *)
}

let backends = 2

let shard_socket dir i = Filename.concat dir (Printf.sprintf "b%d.sock" i)

let asc_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/asc.exe"

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* One request, one reply line, on a fresh connection. *)
let call ?(timeout = 5.0) path req =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Loadgen.write_all fd (J.to_string ~compact:true req ^ "\n") 0;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec line () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> J.of_string (String.sub (Buffer.contents buf) 0 i)
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith ("no reply from " ^ path);
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failwith ("connection closed by " ^ path)
            | k -> Buffer.add_subbytes buf chunk 0 k));
        line ()
  in
  line ()

let op name = J.Obj [ ("op", J.Str name) ]

let metrics t = call t.front (op "metrics")

let gauge json name =
  Option.bind (J.member "gauges" json) (fun g -> Option.bind (J.member name g) J.as_float)

let counter json name =
  Option.value ~default:0
    (Option.bind (J.member "counters" json) (fun c -> Option.bind (J.member name c) J.as_int))

let rec wait_until ~deadline what f =
  if (try f () with Unix.Unix_error _ | Failure _ | Sys_error _ -> false) then ()
  else if Unix.gettimeofday () > deadline then failwith ("fleet never became ready: " ^ what)
  else begin
    Unix.sleepf 0.001;
    wait_until ~deadline what f
  end

let spawn ~log args =
  let exe = asc_exe () in
  Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin log log

let reap ~deadline pid =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap ~deadline:0.0 pid

(* Start the fleet in [dir] and return once the router reports every
   shard up.  On failure every process started so far is killed. *)
let start dir =
  Unix.mkdir dir 0o755;
  let log = Unix.openfile (Filename.concat dir "fleet.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
  let sock = shard_socket dir in
  let started = ref [] in
  let spawn args =
    let pid = spawn ~log args in
    started := pid :: !started;
    pid
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  try
    let shards =
      List.init backends (fun i ->
          spawn
            [ "serve"; "--socket"; sock i; "--workers"; "1"; "--domains"; "1";
              "--state-dir"; Filename.concat dir (Printf.sprintf "state%d" i) ])
    in
    (* The router probes its backends at once, and a probe that finds no
       socket yet backs off for a random while: start it only after
       every shard answers. *)
    List.iteri
      (fun i _ ->
        wait_until ~deadline (sock i) (fun () ->
            J.member "ok" (call (sock i) (op "ping")) = Some (J.Bool true)))
      shards;
    let front = Filename.concat dir "front.sock" in
    let router =
      spawn
        ("route" :: "--socket" :: front
        :: List.concat_map (fun i -> [ "--backend"; sock i ]) (List.init backends Fun.id))
    in
    let t = { dir; router; shards; front } in
    wait_until ~deadline "router" (fun () ->
        gauge (metrics t) "backends_up" = Some (float_of_int backends));
    t
  with e ->
    List.iter kill !started;
    raise e

let pids t = t.router :: t.shards

(* Worker processes a shard's supervisor forked. *)
let children pid =
  let path = Printf.sprintf "/proc/%d/task/%d/children" pid pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim text))
  | exception Sys_error _ -> []

(* Peak resident set (VmHWM) of a process, in MB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0 lines
  | exception Sys_error _ -> 0.0

let fleet_rss_mb t =
  List.fold_left
    (fun acc pid ->
      acc +. peak_rss_mb pid +. List.fold_left (fun a c -> a +. peak_rss_mb c) 0.0 (children pid))
    0.0 (pids t)

(* Ask every process to shut down and wait for each to exit, with
   SIGKILL after a grace period. *)
let stop t =
  let ask path = try ignore (call ~timeout:10.0 path (op "shutdown")) with _ -> () in
  ask t.front;
  List.iteri (fun i _ -> ask (shard_socket t.dir i)) t.shards;
  let deadline = Unix.gettimeofday () +. 15.0 in
  List.iter (reap ~deadline) (pids t)
