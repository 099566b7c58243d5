(** The call plane: remote invocation with deadlines, at-most-once
    retries, cancellation and shedding on the caller's side; serving,
    the reply cache and the admission gate on the owner's side. *)

open Space

val invoke_raw :
  space ->
  handle ->
  meth:string ->
  encode:(Wire.Writer.t -> unit) ->
  decode:(Wire.Reader.t -> 'r) ->
  'r

(** Block until every registration a decode triggered has completed:
    fails with [Dirty_timeout] past the configured [dirty_timeout], and
    with [Registration_failed] when the owner refused one. *)
val await_registrations : space -> bool Sched.Ivar.var list -> unit

(** {1 Envelope handlers} *)

val serve_call :
  space ->
  src:int ->
  call_id:int ->
  msg_id:Proto.msg_id ->
  needs_ack:bool ->
  target:Wirerep.t ->
  meth_name:string ->
  args:Wire.slice ->
  deadline:float ->
  unit

val handle_reply :
  space ->
  call_id:int ->
  msg_id:Proto.msg_id ->
  needs_ack:bool ->
  result:(Wire.slice, Proto.verdict) result ->
  unit

val handle_cancel :
  space -> src:int -> call_id:int -> msg_id:Proto.msg_id -> unit
