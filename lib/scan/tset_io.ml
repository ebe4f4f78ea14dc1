(* Plain-text serialization of scan test sets.

   Format (one item per line, '#' comments):

     circuit <name> <n_pis> <n_ffs>
     test
     si <bits>
     v <bits>          # one line per PI vector, in order
     end

   The header records the interface arities so a loaded set can be
   validated against the circuit it is applied to. *)

module Circuit = Asc_netlist.Circuit

exception Format_error of { line : int; message : string }

let fail line fmt =
  Format.kasprintf (fun message -> raise (Format_error { line; message })) fmt

let bits_to_string bits =
  String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')

let bits_of_string line s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | ch -> fail line "bad bit %C" ch)

let to_string c (tests : Scan_test.t array) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# asc scan test set (%d tests)\ncircuit %s %d %d\n"
       (Array.length tests) (Circuit.name c) (Circuit.n_inputs c) (Circuit.n_dffs c));
  Array.iter
    (fun (t : Scan_test.t) ->
      Buffer.add_string buf "test\n";
      Buffer.add_string buf (Printf.sprintf "si %s\n" (bits_to_string t.si));
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "v %s\n" (bits_to_string v)))
        t.seq;
      Buffer.add_string buf "end\n")
    tests;
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let header = ref None in
  let tests = ref [] in
  let cur_si = ref None and cur_vs = ref [] and in_test = ref false in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let s = String.trim raw in
      let s = match String.index_opt s '#' with Some k -> String.trim (String.sub s 0 k) | None -> s in
      if s <> "" then begin
        match String.split_on_char ' ' s with
        | [ "circuit"; name; pis; ffs ] ->
            if !header <> None then fail lineno "duplicate circuit header";
            (try header := Some (name, int_of_string pis, int_of_string ffs)
             with Failure _ -> fail lineno "bad circuit header")
        | [ "test" ] ->
            if !in_test then fail lineno "nested test";
            in_test := true;
            cur_si := None;
            cur_vs := []
        | [ "si"; bits ] ->
            if not !in_test then fail lineno "si outside test";
            if !cur_si <> None then fail lineno "duplicate si";
            cur_si := Some (bits_of_string lineno bits)
        | [ "v"; bits ] ->
            if not !in_test then fail lineno "vector outside test";
            cur_vs := bits_of_string lineno bits :: !cur_vs
        | [ "end" ] ->
            if not !in_test then fail lineno "end outside test";
            let si = match !cur_si with Some s -> s | None -> fail lineno "test without si" in
            if !cur_vs = [] then fail lineno "test without vectors";
            tests := Scan_test.create ~si ~seq:(Array.of_list (List.rev !cur_vs)) :: !tests;
            in_test := false
        | _ -> fail lineno "unrecognised line %S" s
      end)
    lines;
  if !in_test then fail 0 "unterminated test";
  match !header with
  | None -> fail 0 "missing circuit header"
  | Some (name, pis, ffs) ->
      let tests = Array.of_list (List.rev !tests) in
      Array.iter
        (fun (t : Scan_test.t) ->
          if Array.length t.si <> ffs then fail 0 "si arity mismatch";
          Array.iter
            (fun v -> if Array.length v <> pis then fail 0 "vector arity mismatch")
            t.seq)
        tests;
      (name, tests)

(* Validate a loaded set against the circuit it will be applied to. *)
let check_compatible c (name, tests) =
  if Circuit.name c <> name then
    fail 0 "test set is for circuit %S, not %S" name (Circuit.name c);
  Array.iter
    (fun (t : Scan_test.t) ->
      if Array.length t.si <> Circuit.n_dffs c then fail 0 "si arity mismatch";
      Array.iter
        (fun v ->
          if Array.length v <> Circuit.n_inputs c then fail 0 "vector arity mismatch")
        t.seq)
    tests;
  tests

let write_file path c tests =
  let oc = open_out path in
  (try output_string oc (to_string c tests)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let read_file ?chaos path =
  of_string
    (Asc_util.Durable.read_file path ~after_open:(fun () ->
         Asc_util.Chaos.hit chaos Asc_util.Chaos.tset_io_read))
