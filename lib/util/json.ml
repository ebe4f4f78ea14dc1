(* Minimal JSON serialization and parsing.

   One escaping/printing path shared by every JSON producer in the tree
   (the CLI's --json summaries, the bench harness, the telemetry trace
   writer), replacing hand-built Printf templates.  The parser exists for
   the serving layer's line-delimited protocol (docs/SERVING.md): one
   request or response per line, so it must accept anything [to_string]
   emits plus the usual hand-written client JSON, and reject everything
   else with a position.

   Numbers: [Float] prints with enough digits to round-trip ("%.17g"
   would be noisy; "%g" loses precision) — we use "%.6f"-style fixed
   rendering for typical telemetry magnitudes via [Printf "%.12g"],
   which is exact for every float the toolchain emits (seconds,
   ratios).  NaN and infinities have no JSON spelling; they are mapped
   to [null] rather than producing an unparseable file. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string buf "null"
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

(* [indent < 0] means compact (single line, no spaces after separators). *)
let rec value_to buf ~indent ~level v =
  let nl k =
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * k) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          value_to buf ~indent ~level:(level + 1) item)
        items;
      nl level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (level + 1);
          escape_to buf k;
          Buffer.add_string buf (if indent >= 0 then ": " else ":");
          value_to buf ~indent ~level:(level + 1) item)
        fields;
      nl level;
      Buffer.add_char buf '}'

let to_string ?(compact = false) v =
  let buf = Buffer.create 1024 in
  value_to buf ~indent:(if compact then -1 else 2) ~level:0 v;
  Buffer.contents buf

(* --- Parsing ------------------------------------------------------------ *)

exception Parse_error of { pos : int; message : string }

(* Recursive-descent over a string with one lookahead character.  Numbers
   that are integral and fit in [int] parse as [Int]; everything else
   numeric parses as [Float], mirroring the writer (which prints integral
   floats without a point, so Int/Float is not round-trippable — by
   design, both spell the same JSON number). *)
type parser_state = { text : string; mutable pos : int }

let perr st fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { pos = st.pos; message })) fmt

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.text in
  while
    st.pos < n
    && match st.text.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> perr st "expected %C, found %C" c d
  | None -> perr st "expected %C, found end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.text
    && String.sub st.text st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else perr st "bad literal (expected %s)" word

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> perr st "bad hex digit %C in \\u escape" c

(* Encode a Unicode scalar value as UTF-8.  The writer only ever emits
   \u00XX for control characters, but clients may send any BMP escape. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> perr st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        (match peek st with
        | None -> perr st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.text then
                  perr st "truncated \\u escape";
                let code =
                  let d k = hex_digit st st.text.[st.pos + k] in
                  (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3
                in
                st.pos <- st.pos + 4;
                add_utf8 buf code
            | c -> perr st "bad escape \\%C" c));
        go ())
    | Some c when Char.code c < 0x20 -> perr st "raw control character in string"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let n = String.length st.text in
  if peek st = Some '-' then advance st;
  while
    st.pos < n
    && match st.text.[st.pos] with
       | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
       | _ -> false
  do
    advance st
  done;
  let s = String.sub st.text start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None ->
          st.pos <- start;
          perr st "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> perr st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string_body st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> perr st "expected ',' or ']' in array"
        in
        items []
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else
        let field () =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              fields (kv :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev (kv :: acc))
          | _ -> perr st "expected ',' or '}' in object"
        in
        fields []
  | Some c -> perr st "unexpected character %C" c

let of_string text =
  let st = { text; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length text then perr st "trailing content after JSON value";
  v

let parse text =
  match of_string text with
  | v -> Ok v
  | exception Parse_error { pos; message } ->
      Error (Printf.sprintf "at offset %d: %s" pos message)

(* --- Accessors ----------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let as_str = function Str s -> Some s | _ -> None

let as_int = function Int n -> Some n | _ -> None

let as_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let as_bool = function Bool b -> Some b | _ -> None

let as_list = function List l -> Some l | _ -> None

let as_obj = function Obj fields -> Some fields | _ -> None
