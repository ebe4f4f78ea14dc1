(* Durable-file mechanics: whole-file read, atomic replace with bounded
   retry, numbered-copy rotation and probe, CRC-32 trailer, mkdir -p.
   Policies (re-raise, swallow, degrade) and chaos points stay with the
   callers, which see each syscall through the [step] / [after_open]
   hooks.  Contract in durable.mli; the discipline in docs/ROBUSTNESS.md. *)

type step = Open | Output | Rename | Rotate

let read_file ?(after_open = ignore) path =
  let ic = open_in_bin path in
  match
    after_open ();
    really_input_string ic (in_channel_length ic)
  with
  | text ->
      close_in ic;
      text
  (* A simulated crash skips all cleanup: the channel stays open. *)
  | exception (Chaos.Killed _ as e) -> raise e
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_in_noerr ic;
      Printexc.raise_with_backtrace e bt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let numbered path k = Printf.sprintf "%s.%d" path k

(* One atomic rename per step, so a crash at any point leaves every
   snapshot intact under exactly one name that [copies] lists (possibly
   with a gap).  Re-running after a partial rotation is harmless. *)
let rotate ?(step = ignore) ~keep path =
  if keep > 1 && Sys.file_exists path then begin
    for k = keep - 2 downto 1 do
      let src = numbered path k in
      if Sys.file_exists src then begin
        step Rotate;
        Sys.rename src (numbered path (k + 1))
      end
    done;
    step Rotate;
    Sys.rename path (numbered path 1)
  end

let copies path =
  let prefix = Filename.basename path ^ "." in
  let np = String.length prefix in
  (* Only canonical suffixes: "<file>.7", not "<file>.07" or "<file>.+7". *)
  let index name =
    let n = String.length name in
    if n <= np || String.sub name 0 np <> prefix then None
    else
      let digits = String.sub name np (n - np) in
      match int_of_string_opt digits with
      | Some k when k >= 1 && string_of_int k = digits -> Some k
      | _ -> None
  in
  match Sys.readdir (Filename.dirname path) with
  | names ->
      Array.to_list names |> List.filter_map index |> List.sort compare
      |> List.map (numbered path)
  | exception Sys_error _ -> []

let write_once step path text =
  let tmp = path ^ ".tmp" in
  try
    step Open;
    let oc = open_out_bin tmp in
    (try
       step Output;
       output_string oc text;
       close_out oc
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       close_out_noerr oc;
       Printexc.raise_with_backtrace e bt);
    step Rename;
    Sys.rename tmp path
  with
  | Chaos.Killed _ as e -> raise e
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Sys.remove tmp with Sys_error _ -> ());
      Printexc.raise_with_backtrace e bt

let replace ?(step = ignore) ?(keep = 1) ?(retries = 0) ?(on_failure = ignore)
    path text =
  let rec attempt n =
    match
      if n = 0 then rotate ~step ~keep path;
      write_once step path text
    with
    | () -> ()
    | exception (Sys_error _ as e) ->
        on_failure ();
        if n >= retries then raise e
        else begin
          (* Linear backoff, short enough not to distort deadline-aware
             runs: transient failures (ENOSPC racing a cleaner, NFS
             hiccups) usually clear within a few milliseconds. *)
          Unix.sleepf (0.002 *. float_of_int (n + 1));
          attempt (n + 1)
        end
  in
  attempt 0

let trailer body = "crc " ^ Crc.to_hex (Crc.crc32 body) ^ "\n"

let trailer_len = String.length "crc 01234567\n"

let seal body = body ^ trailer body

let unseal text =
  let n = String.length text in
  if n < trailer_len || String.sub text (n - trailer_len) 4 <> "crc " then
    Error "missing crc trailer"
  else
    let body = String.sub text 0 (n - trailer_len) in
    (* Compare rendered digits, not parsed values: "ABCD…" must not pass
       for the canonical "abcd…". *)
    if String.sub text (n - trailer_len) trailer_len = trailer body then Ok body
    else Error "crc mismatch"
