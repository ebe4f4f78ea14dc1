(** Packed bit vectors over native words.

    The library represents fault sets (detected / target / undetected) and
    time-unit sets as bit vectors; all set algebra used by the compaction
    procedures goes through this module. *)

type t

(** [create ?default len] is a vector of [len] bits, all [default]
    (default [false]). *)
val create : ?default:bool -> int -> t

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val copy : t -> t

(** Set every bit to [b]. *)
val fill : t -> bool -> unit

(** In-place set algebra; lengths must match. *)
val union_into : into:t -> t -> unit

val inter_into : into:t -> t -> unit

(** [diff_into ~into src] removes the bits of [src] from [into]. *)
val diff_into : into:t -> t -> unit

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** Number of set bits. *)
val count : t -> int

val is_empty : t -> bool
val equal : t -> t -> bool

(** [subset a b] is true when every set bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** Iterate over set indices in increasing order. *)
val iter_set : (int -> unit) -> t -> unit

val fold_set : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list

(** Lowest set index, or [-1] if empty. *)
val first_set : t -> int

val of_list : int -> int list -> t
val init : int -> (int -> bool) -> t

val to_string : t -> string
