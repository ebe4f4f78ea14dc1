(** Partially specified test cubes (PODEM output).  [fill] randomises the
    unspecified positions into a concrete {!Asc_sim.Pattern.t}. *)

type v = Zero | One | X

type t = { pis : v array; state : v array }

val create : n_pis:int -> n_ffs:int -> t
val specified : v -> bool

(** Number of specified (non-X) positions. *)
val specified_count : t -> int

val fill : Asc_util.Rng.t -> t -> Asc_sim.Pattern.t
val to_string : t -> string
