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

(** {1 Envelope handlers} *)

val serve_call :
  space ->
  src:int ->
  call_id:int ->
  msg_id:Proto.msg_id ->
  needs_ack:bool ->
  target:Wirerep.t ->
  meth_name:string ->
  args:string ->
  deadline:float ->
  unit

val handle_reply :
  space ->
  call_id:int ->
  msg_id:Proto.msg_id ->
  needs_ack:bool ->
  result:(string, string) result ->
  unit

(** Settle a pending call with a busy or expired rejection. *)
val settle_call : space -> call_id:int -> call_outcome -> unit

val handle_cancel :
  space -> src:int -> call_id:int -> msg_id:Proto.msg_id -> unit
