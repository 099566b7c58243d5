(** Write-ahead-log schema for durable spaces.

    The {!Netobj_store.Store} carries opaque byte strings; this module
    defines what a durable space writes into them: one {!record} per
    GC-relevant state transition, appended at the commit point that
    makes the transition visible to peers.  A snapshot, taken to
    truncate the log, is the list of records that rebuilds the whole
    image.  Recovery replays the snapshot's records, then the log
    suffix, in order, through the same applier. *)

type record =
  | Epoch of { epoch : int; cont : int }
      (** incarnation bump; [cont] is the continuity floor carried in
          every packet *)
  | Export of { wr : Wirerep.t; tag : string }
      (** a concrete object entered the table; [tag] selects the
          registered method-suite factory at recovery *)
  | Reclaim of Wirerep.t  (** the collector removed a dead concrete *)
  | Root of { wr : Wirerep.t; delta : int }
      (** local root count change: ±1 in the log, the whole count in a
          snapshot *)
  | Link of { parent : Wirerep.t; child : Wirerep.t; add : bool }
      (** heap edge between local concretes *)
  | Bind of { name : string; wr : Wirerep.t }  (** agent name bind *)
  | Unbind of string
  | Dirty of { wr : Wirerep.t; client : int; seq : int; add : bool }
      (** dirty-set add/remove at the owner with the client's seqno *)
  | Evict of int  (** lease eviction of every entry of this client *)
  | Forget of int
      (** the peer restarted with amnesia: drop its dirty entries and
          its sequence-number history *)
  | Surrogate of { wr : Wirerep.t; add : bool }
      (** a usable surrogate appeared/disappeared at this space *)
  | Seqno of { wr : Wirerep.t; n : int }
      (** client-side idempotence watermark for dirty/clean calls *)
  | Pins of { msg : int; wrs : Wirerep.t list }
      (** transient dirty pins for an outgoing message *)
  | Unpins of int  (** the message was acknowledged; pins released *)
  | Peer of { peer : int; epoch : int }
      (** highest incarnation epoch seen from this peer — guards the
          forget-vs-reconcile decision across our own recovery *)
  | Watermarks of { next_index : int; next_msg : int; next_call : int }
      (** the id counters, carried only by a snapshot *)

val record_codec : record Netobj_pickle.Pickle.t

(** A snapshot image: the records that rebuild a whole space. *)
val image_codec : record list Netobj_pickle.Pickle.t

(** [decode_records payloads] decodes log payloads in order and returns
    the records with the number of payloads skipped because their
    decode raised {!Netobj_pickle.Wire.Error}.  Any other exception
    propagates. *)
val decode_records : string list -> record list * int

val pp_record : record Fmt.t
