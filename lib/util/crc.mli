(** CRC-32 (IEEE 802.3) checksums.  Used by the integrity trailer of
    sealed files ({!Durable.seal}: checkpoints and result-cache entries),
    where it detects all single-bit errors and all bursts up to 32 bits —
    the corruption class of torn or bit-rotted files — and as a stable
    string hash by the serving layer's [Scheduler] (job keys) and
    [Router] (rendezvous shard weights). *)

(** [crc32 s] is the CRC-32 of [s] as a non-negative int in [0, 2^32). *)
val crc32 : string -> int

(** Fixed-width (8 hex digit, lowercase, zero-padded) rendering. *)
val to_hex : int -> string
