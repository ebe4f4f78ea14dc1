(** Scalar reference simulator (obviously-correct, slow), with fault
    injection.

    The one oracle: the test suite validates {!Kernel}, {!Engine3} and the
    fault simulators against this module. *)

(** [eval_gate2 kind inputs] — 2-valued gate function. *)
val eval_gate2 : Asc_netlist.Gate.kind -> bool list -> bool

(** [eval_gate3 kind inputs] — pessimistic 3-valued gate function,
    [None] = X. *)
val eval_gate3 : Asc_netlist.Gate.kind -> bool option list -> bool option

(** Combinational evaluation; returns every gate's value.  [overrides]
    (default none) inject faults with the {!Override} semantics: an
    output override forces a gate's value, a pin override one fanin as
    seen by that gate only.  The scalar machine is a single lane, so every
    override applies whatever its [lanes] mask. *)
val eval_comb :
  ?overrides:Override.t list ->
  Asc_netlist.Circuit.t ->
  pis:bool array ->
  state:bool array ->
  bool array

(** PO values out of a full gate-value array. *)
val outputs_of : Asc_netlist.Circuit.t -> bool array -> bool array

(** Next-state values out of a full gate-value array: each flip-flop's D
    value, or the stuck value of a DFF pin-0 override among [overrides]. *)
val next_state_of :
  ?overrides:Override.t list -> Asc_netlist.Circuit.t -> bool array -> bool array

(** Run a PI sequence from a binary state, with [overrides] injected in
    every cycle: per-cycle PO vectors and the final (scan-out) state. *)
val run :
  ?overrides:Override.t list ->
  Asc_netlist.Circuit.t ->
  init:bool array ->
  seq:bool array array ->
  bool array array * bool array

val eval_comb3 :
  Asc_netlist.Circuit.t ->
  pis:bool option array ->
  state:bool option array ->
  bool option array

(** 3-valued run from a (possibly unknown) initial state. *)
val run3 :
  Asc_netlist.Circuit.t ->
  init:bool option array ->
  seq:bool array array ->
  bool option array array * bool option array
