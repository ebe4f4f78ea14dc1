(* Reader and writer for the ISCAS-89 `.bench` netlist format.

   Accepted grammar (one statement per line, '#' starts a comment):

     INPUT(sig)
     OUTPUT(sig)
     sig = KIND(a, b, ...)

   where KIND is one of DFF, BUF/BUFF, NOT, AND, NAND, OR, NOR, XOR, XNOR.
   Signals may be referenced before they are defined.  A signal that is
   OUTPUT-declared but never defined and never INPUT-declared is an error. *)

exception Parse_error of { line : int; message : string }

let parse_fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment s =
  match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' | '-' | '$' | '/' -> true
  | _ -> false

(* Statements as parsed, before name resolution. *)
type statement =
  | Input_decl of string
  | Output_decl of string
  | Assign of { lhs : string; kind : Gate.kind; args : string list }

let split_args line s =
  (* Split "a, b, c" on commas, trimming whitespace. *)
  let parts = String.split_on_char ',' s in
  List.map
    (fun p ->
      let p = String.trim p in
      if p = "" then parse_fail line "empty argument";
      String.iter
        (fun c -> if not (is_ident_char c) then parse_fail line "bad character %C in argument" c)
        p;
      p)
    parts

let parse_call line s =
  (* "KIND(a, b, c)" -> (KIND, [a; b; c]) *)
  match String.index_opt s '(' with
  | None -> parse_fail line "expected '(' in %S" s
  | Some lp ->
      if s.[String.length s - 1] <> ')' then parse_fail line "expected ')' at end of %S" s;
      let head = String.trim (String.sub s 0 lp) in
      let inner = String.sub s (lp + 1) (String.length s - lp - 2) in
      (head, inner)

let parse_statement line s =
  match String.index_opt s '=' with
  | Some eq ->
      let lhs = String.trim (String.sub s 0 eq) in
      if lhs = "" then parse_fail line "missing signal name before '='";
      let rhs = String.trim (String.sub s (eq + 1) (String.length s - eq - 1)) in
      let head, inner = parse_call line rhs in
      let kind =
        match Gate.of_string head with
        | Some k when k <> Gate.Input -> k
        | _ -> parse_fail line "unknown gate kind %S" head
      in
      let args = split_args line inner in
      Assign { lhs; kind; args }
  | None ->
      let head, inner = parse_call line s in
      let arg = String.trim inner in
      if arg = "" then parse_fail line "missing signal in %S" s;
      (match String.uppercase_ascii head with
      | "INPUT" -> Input_decl arg
      | "OUTPUT" -> Output_decl arg
      | _ -> parse_fail line "unknown declaration %S" head)

let statements_of_string text =
  let stmts = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let s = String.trim (strip_comment raw) in
      if s <> "" then stmts := (i + 1, parse_statement (i + 1) s) :: !stmts)
    lines;
  List.rev !stmts

let parse_string ~name text =
  let stmts = statements_of_string text in
  let b = Builder.create name in
  (* Pass 1: declare every defined signal so references resolve. *)
  List.iter
    (fun (line, stmt) ->
      match stmt with
      | Input_decl s ->
          if Builder.find b s <> None then parse_fail line "duplicate definition of %S" s;
          ignore (Builder.add_input b s)
      | Assign { lhs; kind; _ } ->
          if Builder.find b lhs <> None then parse_fail line "duplicate definition of %S" lhs;
          ignore (Builder.declare b kind lhs)
      | Output_decl _ -> ())
    stmts;
  let resolve line s =
    match Builder.find b s with
    | Some id -> id
    | None -> parse_fail line "undefined signal %S" s
  in
  (* Pass 2: connect fanins and outputs. *)
  List.iter
    (fun (line, stmt) ->
      match stmt with
      | Input_decl _ -> ()
      | Output_decl s -> Builder.add_output b (resolve line s)
      | Assign { lhs; kind; args } ->
          let id = resolve line lhs in
          let fanin = List.map (resolve line) args in
          if not (Gate.arity_ok kind (List.length fanin)) then
            parse_fail line "gate %S (%s) has illegal arity %d" lhs (Gate.to_string kind)
              (List.length fanin);
          (* A DFF feeding itself is a legal one-bit state machine; any
             other gate reading its own output is a zero-delay loop the
             levelised simulator cannot evaluate. *)
          if kind <> Gate.Dff && List.mem id fanin then
            parse_fail line "combinational self-loop on %S" lhs;
          Builder.connect b id fanin)
    stmts;
  Builder.finalize b

let parse_file ?chaos path =
  let text =
    Asc_util.Durable.read_file path ~after_open:(fun () ->
        Asc_util.Chaos.hit chaos Asc_util.Chaos.bench_io_read)
  in
  let base = Filename.remove_extension (Filename.basename path) in
  parse_string ~name:base text

let to_string c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.name c));
  Array.iter
    (fun g -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.signal_name c g)))
    (Circuit.inputs c);
  Array.iter
    (fun g -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.signal_name c g)))
    (Circuit.outputs c);
  Buffer.add_char buf '\n';
  for g = 0 to Circuit.n_gates c - 1 do
    match Circuit.kind c g with
    | Gate.Input -> ()
    | kind ->
        let args =
          Circuit.fanins c g |> Array.to_list
          |> List.map (Circuit.signal_name c)
          |> String.concat ", "
        in
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" (Circuit.signal_name c g) (Gate.to_string kind) args)
  done;
  Buffer.contents buf

let write_file path c =
  Asc_util.Durable.replace path (to_string c)
