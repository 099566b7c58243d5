(** Shared vocabulary of the distributed-GC abstract machines.

    Follows the formal state space of the specification (its Figure 8):
    processes, object references with owners, globally unique message
    identifiers, the six collector messages, and the five-point reference
    life cycle laid out on the cube diagram. *)

(** Process identifier. *)
type proc = int

(** A remote object reference: the owning process plus the object's index
    at the owner (the "wireRep" of the TR, abstracted). *)
type rref = { owner : proc; index : int }

(** Globally unique message identifier: minting process plus a
    per-process sequence number (the spec's "new Identifier", realised as
    the URI-style scheme it suggests). *)
type msg_id = { origin : proc; seq : int }

(** The six collector messages (spec Figure 3). *)
type message =
  | Copy of rref * msg_id
  | Copy_ack of rref * msg_id
  | Dirty of rref
  | Dirty_ack of rref
  | Clean of rref
  | Clean_ack of rref

(** Reference life-cycle states (the cube's vertices):
    [Bot] pre-existence / post-cleanup, [Nil] received but not yet
    registered, [Ok] usable, [Ccit] clean call in transit, [Ccitnil]
    clean call in transit but a fresh copy has arrived (the state the
    formalisation adds to Birrell's account). *)
type rstate = Bot | Nil | Ok | Ccit | Ccitnil

val compare_rref : rref -> rref -> int

val compare_msg_id : msg_id -> msg_id -> int

val compare_message : message -> message -> int

val compare_rstate : rstate -> rstate -> int

val pp_proc : proc Fmt.t

val pp_rref : rref Fmt.t

val pp_msg_id : msg_id Fmt.t

val pp_message : message Fmt.t

val pp_rstate : rstate Fmt.t
