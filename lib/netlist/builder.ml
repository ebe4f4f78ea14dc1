(* Mutable construction interface for {!Circuit}.

   Signals can be declared before their fanins are known ([declare] +
   [connect]), which lets the `.bench` reader and the synthetic generator
   create nodes in file order regardless of definition order. *)

type node = {
  mutable kind : Gate.kind;
  name : string;
  mutable fanin : int list; (* reversed *)
  mutable connected : bool;
}

type t = {
  circuit_name : string;
  mutable nodes : node array;
  mutable n : int;
  by_name : (string, int) Hashtbl.t;
  mutable outputs : int list; (* reversed *)
}

let create circuit_name =
  { circuit_name; nodes = Array.make 16 { kind = Gate.Buf; name = ""; fanin = []; connected = false };
    n = 0; by_name = Hashtbl.create 64; outputs = [] }

let size t = t.n

let grow t =
  if t.n = Array.length t.nodes then begin
    let bigger = Array.make (2 * Array.length t.nodes) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end

let declare t kind name =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Builder.declare: duplicate signal %S" name);
  grow t;
  let id = t.n in
  t.nodes.(id) <- { kind; name; fanin = []; connected = false };
  t.n <- t.n + 1;
  Hashtbl.add t.by_name name id;
  id

let connect t id fanin =
  if id < 0 || id >= t.n then invalid_arg "Builder.connect: bad id";
  let node = t.nodes.(id) in
  if node.connected then
    invalid_arg (Printf.sprintf "Builder.connect: %S already connected" node.name);
  List.iter
    (fun f -> if f < 0 || f >= t.n then invalid_arg "Builder.connect: bad fanin id")
    fanin;
  node.fanin <- List.rev fanin;
  node.connected <- true

let add_input t name =
  let id = declare t Gate.Input name in
  connect t id [];
  id

let add_const t value name =
  let id = declare t (if value then Gate.Const1 else Gate.Const0) name in
  connect t id [];
  id

let add_dff t name = declare t Gate.Dff name

let set_dff_input t id d = connect t id [ d ]

let add_gate t kind name fanin =
  let id = declare t kind name in
  connect t id fanin;
  id

(* Append one more fanin to an n-ary gate (used by the synthetic generator
   to absorb otherwise-dead logic). *)
let append_fanin t id f =
  if id < 0 || id >= t.n || f < 0 || f >= t.n then invalid_arg "Builder.append_fanin";
  let node = t.nodes.(id) in
  if not (Gate.n_ary node.kind) then
    invalid_arg (Printf.sprintf "Builder.append_fanin: %S is not n-ary" node.name);
  node.fanin <- f :: node.fanin

let add_output t id =
  if id < 0 || id >= t.n then invalid_arg "Builder.add_output: bad id";
  t.outputs <- id :: t.outputs

let find t name = Hashtbl.find_opt t.by_name name

let name_of t id = t.nodes.(id).name

let finalize t =
  let n = t.n in
  let kinds = Array.init n (fun g -> t.nodes.(g).kind) in
  let fanins =
    Array.init n (fun g ->
        let node = t.nodes.(g) in
        if not node.connected then
          raise
            (Circuit.Structural_error
               (Printf.sprintf "circuit %s: signal %S was declared but never connected"
                  t.circuit_name node.name));
        Array.of_list (List.rev node.fanin))
  in
  let signal_names = Array.init n (fun g -> t.nodes.(g).name) in
  let collect pred =
    let acc = ref [] in
    for g = n - 1 downto 0 do
      if pred kinds.(g) then acc := g :: !acc
    done;
    Array.of_list !acc
  in
  let inputs = collect (fun k -> k = Gate.Input) in
  let dffs = collect (fun k -> k = Gate.Dff) in
  Circuit.make ~name:t.circuit_name ~kinds ~fanins ~inputs
    ~outputs:(Array.of_list (List.rev t.outputs))
    ~dffs ~signal_names
