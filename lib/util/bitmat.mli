(** Dense bit matrices (one {!Bitvec.t} per row).

    The compaction procedures keep detection matrices — rows are tests,
    columns are faults — and query per-fault detection counts and last
    detecting tests. *)

type t

val create : int -> int -> t
val rows : t -> int
val cols : t -> int

(** The row is the live underlying vector, not a copy. *)
val row : t -> int -> Bitvec.t

val get : t -> int -> int -> bool
val set : t -> int -> int -> unit
val clear : t -> int -> int -> unit

(** Replace a row wholesale (length must equal [cols]). *)
val set_row : t -> int -> Bitvec.t -> unit

(** Union of all rows: the set of columns covered by at least one row. *)
val column_union : t -> Bitvec.t

(** Number of rows with the given column set. *)
val column_count : t -> int -> int

(** All column counts in one pass. *)
val column_counts : t -> int array

(** Highest row index with the column set, or [-1]. *)
val last_row_with : t -> int -> int

val copy : t -> t
