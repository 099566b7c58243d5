(** Durability and incarnations: snapshots, crash, amnesia restart, and
    crash-consistent recovery from the snapshot and log. *)

open Space

val crash : t -> int -> unit

val restart : t -> int -> unit

val recover : t -> int -> unit

(** Take a compacting snapshot (no-op when not durable). *)
val take_snapshot : space -> unit

(** Spawn the snapshot, gc, cycle and ping demons the config asks for,
    under the space's current epoch. *)
val spawn_periodic_demons : space -> unit
