(** Mutable construction interface for {!Circuit}.

    Two usage styles:
    - direct: {!add_input}, {!add_gate}, {!add_dff} + {!set_dff_input};
    - deferred: {!declare} every signal first, then {!connect} fanins in any
      order (used by the `.bench` reader, where signals are referenced before
      they are defined).

    Primary inputs and flip-flops appear in the final circuit in declaration
    order; declaration order of DFFs defines the scan-chain order. *)

type t

val create : string -> t

(** Number of signals declared so far. *)
val size : t -> int

(** Declare a signal with no fanins yet.  Signal names must be unique. *)
val declare : t -> Gate.kind -> string -> int

(** Provide the fanin list of a declared signal (exactly once). *)
val connect : t -> int -> int list -> unit

val add_input : t -> string -> int

(** [add_const t value name] adds a constant-0 or constant-1 source. *)
val add_const : t -> bool -> string -> int

(** Declare a flip-flop; its next-state fanin is set by {!set_dff_input}. *)
val add_dff : t -> string -> int

val set_dff_input : t -> int -> int -> unit

val add_gate : t -> Gate.kind -> string -> int list -> int

(** Append one more fanin to an n-ary gate. *)
val append_fanin : t -> int -> int -> unit

(** Mark a signal as driving a primary output (order preserved). *)
val add_output : t -> int -> unit

val find : t -> string -> int option
val name_of : t -> int -> string

(** Build the circuit; raises {!Circuit.Structural_error} on unconnected
    signals or structural violations. *)
val finalize : t -> Circuit.t
