(* Simulated durable medium: volatile write cache + group-commit fsync
   + append-only durable log + atomically-replaced snapshot.  See the
   interface for the model. *)

module Sched = Netobj_sched.Sched
module Wire = Netobj_pickle.Wire
module Metrics = Netobj_obs.Metrics
module Obs = Netobj_obs.Obs

let m_log_bytes = Metrics.counter Metrics.global "store.log_bytes"
let m_snapshots = Metrics.counter Metrics.global "store.snapshots"
let m_replayed = Metrics.counter Metrics.global "store.records_replayed"
let m_torn = Metrics.counter Metrics.global "store.torn_records"
let m_skipped = Metrics.counter Metrics.global "store.records_skipped"
let m_fsyncs = Metrics.counter Metrics.global "store.fsyncs"

type fault = Torn_tail | Lost_suffix | Slow_fsync of float

type t = {
  sched : Sched.t;
  id : int;
  fsync_delay : float;
  mutable extra_delay : float; (* sticky Slow_fsync tax *)
  mutable snap : string option; (* durable snapshot *)
  log : Buffer.t; (* durable log (framed records) *)
  mutable cache : string list; (* volatile write cache, reversed *)
  mutable waiters : (unit -> unit) list; (* barrier callbacks, reversed *)
  mutable armed : bool; (* a group-commit timer is in flight *)
  mutable gen : int; (* invalidates in-flight timers on crash/sync *)
  mutable injected : fault option;
}

(* FNV-1a, 32 bit: cheap, deterministic, catches torn frames. *)
let fnv1a32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let frame payload =
  Wire.Writer.with_pooled (fun w ->
      Wire.Writer.uvarint w (String.length payload);
      Wire.Writer.raw w payload;
      Wire.Writer.uvarint w (fnv1a32 payload);
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let decode_log bytes =
  let r = Wire.Reader.of_string bytes in
  let acc = ref [] in
  let torn = ref 0 in
  (try
     while not (Wire.Reader.at_end r) do
       let len = Wire.Reader.uvarint r in
       if Wire.Reader.remaining r < len then raise Exit;
       let payload = Wire.Reader.raw r len in
       let sum = Wire.Reader.uvarint r in
       if sum <> fnv1a32 payload then raise Exit;
       acc := payload :: !acc
     done
   with Exit | Wire.Error _ -> incr torn);
  (List.rev !acc, !torn)

let create ~sched ?(fsync_delay = 0.02) ~id () =
  {
    sched;
    id;
    fsync_delay;
    extra_delay = 0.;
    snap = None;
    log = Buffer.create 256;
    cache = [];
    waiters = [];
    armed = false;
    gen = 0;
    injected = None;
  }

(* Migrate the write cache to the durable log and release barriers. *)
let flush t =
  t.armed <- false;
  if t.cache <> [] then begin
    List.iter (Buffer.add_string t.log) (List.rev t.cache);
    t.cache <- [];
    if Obs.on () then Metrics.incr m_fsyncs
  end;
  let ws = List.rev t.waiters in
  t.waiters <- [];
  List.iter (fun k -> k ()) ws

let arm t =
  if not t.armed then begin
    t.armed <- true;
    let gen = t.gen in
    Sched.timer t.sched
      ~name:(Printf.sprintf "store-fsync-%d" t.id)
      (t.fsync_delay +. t.extra_delay)
      (fun () -> if t.gen = gen then flush t)
  end

let append t payload =
  let f = frame payload in
  if Obs.on () then Metrics.add m_log_bytes (String.length f);
  t.cache <- f :: t.cache;
  arm t

let barrier t k = if t.cache = [] then k () else (t.waiters <- k :: t.waiters; arm t)

let sync t =
  t.gen <- t.gen + 1;
  flush t

let set_fault t f = t.injected <- f
let fault t = t.injected

let crash t =
  t.gen <- t.gen + 1;
  t.armed <- false;
  t.waiters <- [];
  (match t.injected with
  | None ->
      (* kindest disk: in-flight writes made it *)
      List.iter (Buffer.add_string t.log) (List.rev t.cache)
  | Some Lost_suffix -> ()
  | Some Torn_tail -> (
      (* the first unsynced frame is cut mid-record *)
      match List.rev t.cache with
      | [] -> ()
      | f :: _ -> Buffer.add_string t.log (String.sub f 0 (String.length f / 2))
      )
  | Some (Slow_fsync extra) ->
      List.iter (Buffer.add_string t.log) (List.rev t.cache);
      t.extra_delay <- t.extra_delay +. extra);
  t.cache <- [];
  t.injected <- None

let snapshot t blob =
  t.gen <- t.gen + 1;
  t.armed <- false;
  t.snap <- Some blob;
  Buffer.clear t.log;
  t.cache <- [];
  if Obs.on () then Metrics.incr m_snapshots;
  let ws = List.rev t.waiters in
  t.waiters <- [];
  List.iter (fun k -> k ()) ws

let recover t =
  let records, torn = decode_log (Buffer.contents t.log) in
  if Obs.on () then begin
    Metrics.add m_replayed (List.length records);
    Metrics.add m_torn torn
  end;
  (t.snap, records, torn)

let note_skipped n = if Obs.on () && n > 0 then Metrics.add m_skipped n

let wipe t =
  t.gen <- t.gen + 1;
  t.armed <- false;
  t.snap <- None;
  Buffer.clear t.log;
  t.cache <- [];
  t.waiters <- [];
  t.injected <- None;
  t.extra_delay <- 0.

let log_size t = Buffer.length t.log
let pending t = List.length t.cache
