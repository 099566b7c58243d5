(** The reference-listing plane: surrogate registration (dirty/clean on
    both sides), the handle codec and transient pins, local and global
    marking, the cleaning, ping and gc demons, lease eviction, peer
    forgetting, and the reassert/grace handshake after a recovery. *)

open Space

(** {1 Marshalling} *)

(** Ensure a table entry for a reference just read from a message;
    returns the registration to await, if any. *)
val acquire_surrogate : space -> Wirerep.t -> bool Sched.Ivar.var option

val handle_codec : handle Pickle.t

(** Drop the transient pins of an acknowledged (or abandoned) message. *)
val release_pins_for : space -> Proto.msg_id -> unit

(** {1 Collection} *)

(** Local reachability from roots and pins, plus dirty-kept concretes
    when [dirty_kept]. *)
val mark : space -> dirty_kept:bool -> Itbl.t

val collect : space -> unit

val collect_all : t -> unit

val global_collect : t -> int

(** {1 Demons} *)

val cleaning_demon : space -> unit -> unit

val cleaning_demon_batched : space -> float -> unit -> unit

(** One tick of the ping demon: ping every client holding a lease
    here, evicting those whose lease (and grace) ran out. *)
val ping_tick : space -> unit

(** {1 Envelope handlers} *)

val handle_dirty : space -> src:int -> wr:Wirerep.t -> seq:int -> unit

val apply_clean : space -> src:int -> wr:Wirerep.t -> seq:int -> unit

val handle_clean :
  space -> src:int -> wr:Wirerep.t -> seq:int -> strong:bool -> unit

val handle_dirty_ack : space -> wr:Wirerep.t -> ok:bool -> unit

val handle_clean_ack : space -> wr:Wirerep.t -> unit

val handle_ping_ack : space -> src:int -> nonce:int -> unit

val handle_reassert : space -> src:int -> items:(Wirerep.t * int) list -> unit

val handle_reassert_ack :
  space -> src:int -> ok:Wirerep.t list -> gone:Wirerep.t list -> unit

(** {1 Peer epochs and recovery} *)

(** Mark these (object, client) dirty entries as awaiting
    re-confirmation until the grace window closes. *)
val grace_mark : space -> (Wirerep.t * int) list -> unit

(** Re-assert dirty for every usable surrogate held from [peer]. *)
val schedule_reassert : space -> int -> unit

(** A peer recovered durably: reconcile with it. *)
val note_peer_recovered : space -> int -> unit

(** A peer restarted with amnesia: forget everything shared with it. *)
val forget_peer_state : space -> int -> unit

(** Fail whatever waits on a surrogate whose owner's state is lost. *)
val fail_surrogate_waiters : sentry ref -> unit
