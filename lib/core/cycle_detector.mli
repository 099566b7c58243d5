(** The distributed cycle detector: trial deletion over
    [Cycle_probe]/[Cycle_reply]/[Cycle_commit] (see {!Netobj_dgc.Cycles}
    for the state machine). *)

open Space

val cycle_collect : space -> int

val cycle_demon : space -> int -> float -> unit -> unit

(** {1 Envelope handlers} *)

val handle_cycle_probe :
  space ->
  src:int ->
  probe_id:int ->
  confirm:bool ->
  targets:Wirerep.t list ->
  unit

val handle_cycle_reply :
  space ->
  probe_id:int ->
  epoch:int ->
  reports:(Wirerep.t * Proto.cycle_report) list ->
  unit

val handle_cycle_commit : space -> wrs:Wirerep.t list -> unit
