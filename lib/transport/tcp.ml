module Sched = Netobj_sched.Sched
module Wire = Netobj_pickle.Wire
module Metrics = Netobj_obs.Metrics
module Obs = Netobj_obs.Obs

let m_sent = Metrics.counter Metrics.global "transport.tcp.sent"

let m_bytes = Metrics.counter Metrics.global "transport.tcp.bytes"

let m_delivered = Metrics.counter Metrics.global "transport.tcp.delivered"

let m_dropped = Metrics.counter Metrics.global "transport.tcp.dropped"

let m_reconnects = Metrics.counter Metrics.global "transport.tcp.reconnects"

type endpoint = { host : string; port : int }

(* Per-peer send queue bound: past this, frames to an unreachable peer
   are dropped (and counted) rather than buffered without limit.  The
   protocol layers recover via idempotent retries. *)
let max_queued_bytes = 8 * 1024 * 1024

let initial_backoff = 0.05

let max_backoff = 1.0

(* Queued frames are gathered, up to this many bytes, into one buffer
   per write; a frame too big to fit is written alone. *)
let gather_cap = 64 * 1024

(* A write buffer grown past this for one huge frame is dropped once
   that frame is on the wire, so a rare multi-megabyte message does not
   stay pinned per peer. *)
let max_retained_out = 1024 * 1024

(* A message queued towards a peer, not yet framed: [fill_out] writes
   its frame straight into the peer's write buffer.  The body is
   [uvarint src · uvarint dst · string kind · string payload]; the
   peer's address is [dst].  [q_size] is the whole frame's size. *)
type queued = { q_src : int; q_kind : string; q_payload : string; q_size : int }

(* One socket we read, accepted or dialled: it carries messages both
   ways, whichever end dialled.  Its decoder is its own, so a frame torn
   by the socket's death dies with it and the next connection's stream
   starts clean.  Only an accepted connection teaches return routes
   ([learn]).  [c_open] goes false when [drop_conn] closes it. *)
type conn = {
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  c_accepted : bool;
  mutable c_open : bool;
}

(* One remote address: its current connection and its outgoing
   frames.  [p_conn] is the connection we write to it: one we dialled
   ([p_connecting] until the connect completes), or, for a source with
   no endpoint, the accepted one its frames last arrived on.
   The write buffer [p_out] is reused from one write to the next; its
   first [p_out_len] bytes are the frames currently on the wire, built
   in place from the queue: those that fit in [gather_cap], or one
   larger frame alone.  It grows lazily to the largest frame, and is
   dropped after an outsized one (see [max_retained_out]).  Every frame
   carries one message.  [p_ends] lists the end offset of each frame in
   it not yet wholly written, and [p_wstart] is where the first of those
   begins.  On connection loss the write offset rewinds to [p_wstart],
   so a torn frame is retransmitted whole on the next connection and a
   wholly written one never is — the receiver's decoder died with the
   old connection, so retransmission cannot duplicate. *)
type peer = {
  p_addr : int;
  mutable p_conn : conn option;
  mutable p_connecting : bool;
  p_queue : queued Queue.t;
  mutable p_queued_bytes : int;
  mutable p_out : Bytes.t;
  mutable p_out_len : int;
  mutable p_woff : int;
  mutable p_wstart : int;
  p_ends : int Queue.t;
  mutable p_backoff : float;
  mutable p_next_attempt : float;
  mutable p_failed_once : bool;
}

type t = {
  sched : Sched.t;
  endpoints : (int, endpoint) Hashtbl.t;
  listeners : (int, Unix.file_descr) Hashtbl.t;
  mutable conns : conn list;  (* every established connection *)
  peers : (int, peer) Hashtbl.t;
  handlers : (int, Transport.handler) Hashtbl.t;
  by_kind : (string, (int * int) ref) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable reconnects : int;
  mutable closed : bool;
  names : (int * int * string, string) Hashtbl.t;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg ("Tcp: cannot resolve host " ^ host))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ~sched ~serving ~endpoints () =
  (* A peer resetting mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let eps = Hashtbl.create 16 in
  List.iter (fun (a, ep) -> Hashtbl.replace eps a ep) endpoints;
  let t =
    {
      sched;
      endpoints = eps;
      listeners = Hashtbl.create 4;
      conns = [];
      peers = Hashtbl.create 16;
      handlers = Hashtbl.create 16;
      by_kind = Hashtbl.create 16;
      sent = 0;
      delivered = 0;
      dropped = 0;
      bytes = 0;
      reconnects = 0;
      closed = false;
      names = Hashtbl.create 16;
    }
  in
  (try
     List.iter
       (fun addr ->
         let ep =
           match Hashtbl.find_opt eps addr with
           | Some ep -> ep
           | None ->
               invalid_arg (Printf.sprintf "Tcp.create: no endpoint for %d" addr)
         in
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.set_nonblock fd;
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         (try Unix.bind fd (Unix.ADDR_INET (resolve ep.host, ep.port))
          with e ->
            close_quietly fd;
            raise e);
         Unix.listen fd 64;
         Hashtbl.replace t.listeners addr fd)
       serving
   with e ->
     Hashtbl.iter (fun _ fd -> close_quietly fd) t.listeners;
     raise e);
  t

let bound_port t addr =
  match Hashtbl.find_opt t.listeners addr with
  | None -> invalid_arg (Printf.sprintf "Tcp.bound_port: not serving %d" addr)
  | Some fd -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* Destination endpoint, preferring our own listener when the address is
   served in-process — lets a single process talk to itself over real
   sockets even when created with port 0. *)
let endpoint_for t addr =
  if Hashtbl.mem t.listeners addr then
    { host = "127.0.0.1"; port = bound_port t addr }
  else
    match Hashtbl.find_opt t.endpoints addr with
    | Some ep -> ep
    | None -> invalid_arg (Printf.sprintf "Tcp: no endpoint for %d" addr)

let peer_for t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None ->
      let p =
        {
          p_addr = addr;
          p_conn = None;
          p_connecting = false;
          p_queue = Queue.create ();
          p_queued_bytes = 0;
          p_out = Bytes.empty;
          p_out_len = 0;
          p_woff = 0;
          p_wstart = 0;
          p_ends = Queue.create ();
          p_backoff = initial_backoff;
          p_next_attempt = 0.0;
          p_failed_once = false;
        }
      in
      Hashtbl.add t.peers addr p;
      p

(* Resend from the first frame not wholly written. *)
let rewind p = p.p_woff <- p.p_wstart

(* [fd] as a connection: nonblocking, Nagle's delay off, and a fresh
   decoder. *)
let new_conn fd ~accepted =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { c_fd = fd; c_dec = Frame.decoder (); c_accepted = accepted; c_open = true }

let is_current p c = match p.p_conn with Some c' -> c' == c | None -> false

(* The one place a connection is closed.  Idempotent, so a connection
   dropped twice in one pump (superseded by [learn], then read dead) is
   closed once: its fd number may already be another socket's.  Every
   peer writing to it loses it too. *)
let rec drop_conn t c =
  if c.c_open then begin
    c.c_open <- false;
    close_quietly c.c_fd;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    Hashtbl.iter (fun _ p -> if is_current p c then conn_lost t p) t.peers
  end

(* A failed connect or broken connection: drop the connection, rewind
   the in-flight buffer, and back off before the next attempt (doubling
   up to the cap).  Every post-failure attempt counts as a reconnect. *)
and conn_lost t p =
  Option.iter
    (fun c ->
      p.p_conn <- None;
      drop_conn t c)
    p.p_conn;
  p.p_connecting <- false;
  rewind p;
  p.p_failed_once <- true;
  p.p_next_attempt <- Unix.gettimeofday () +. p.p_backoff;
  p.p_backoff <- Float.min max_backoff (p.p_backoff *. 2.0)

let has_endpoint t addr =
  Hashtbl.mem t.listeners addr || Hashtbl.mem t.endpoints addr

(* Learn a return route from an accepted connection: when a frame from
   [src] arrives and we have no configured way to reach [src], the
   connection it arrived on becomes [src]'s peer connection, so replies
   ride the caller's own socket.  This is what lets a pure client (no
   listener, ephemeral everything) converse with a server that never
   heard of it.  A newer connection from the same source supersedes the
   old one — the client only reconnects when the previous socket died. *)
let learn t ~src c =
  if not (has_endpoint t src) then begin
    let p = peer_for t src in
    if not (is_current p c) then begin
      (* Rewinds; the backoff it sets is never read, as [p] is not
         dialled. *)
      conn_lost t p;
      p.p_conn <- Some c
    end
  end

let start_connect t p =
  let ep = endpoint_for t p.p_addr in
  if p.p_failed_once then begin
    t.reconnects <- t.reconnects + 1;
    if Obs.on () then Metrics.incr m_reconnects
  end;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let c = new_conn fd ~accepted:false in
  p.p_conn <- Some c;
  match Unix.connect c.c_fd (Unix.ADDR_INET (resolve ep.host, ep.port)) with
  | () -> t.conns <- c :: t.conns
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      p.p_connecting <- true
  | exception Unix.Unix_error (_, _, _) -> conn_lost t p

(* {2 Accounting} — one unit per message, as in [Net].  Per kind, bytes
   are the payload's; in [stats.bytes] they are the frame body's (the
   payload plus src, dst and kind, excluding the 5-byte frame
   header). *)

let account_kind t kind len =
  if Obs.on () then begin
    Metrics.incr (Metrics.counter Metrics.global ("net.sent." ^ kind));
    Metrics.add (Metrics.counter Metrics.global ("net.bytes." ^ kind)) len
  end;
  let cell =
    match Hashtbl.find_opt t.by_kind kind with
    | Some c -> c
    | None ->
        let c = ref (0, 0) in
        Hashtbl.add t.by_kind kind c;
        c
  in
  let n, b = !cell in
  cell := (n + 1, b + len)

let account_wire t len =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + len;
  if Obs.on () then begin
    Metrics.incr m_sent;
    Metrics.add m_bytes len
  end

let drop t =
  t.dropped <- t.dropped + 1;
  if Obs.on () then Metrics.incr m_dropped

let enqueue t ~dst q =
  let p = peer_for t dst in
  if p.p_queued_bytes + q.q_size > max_queued_bytes then drop t
  else begin
    Queue.add q p.p_queue;
    p.p_queued_bytes <- p.p_queued_bytes + q.q_size
  end

(* The message is framed later, in place; its size is fixed now, so an
   oversized one raises here. *)
let send t ~src ~dst ~kind payload =
  account_kind t kind (String.length payload);
  let body_len =
    Wire.uvarint_size src + Wire.uvarint_size dst + Wire.string_size kind
    + Wire.string_size payload
  in
  let q = { q_src = src; q_kind = kind; q_payload = payload; q_size = Frame.size ~body_len } in
  account_wire t body_len;
  enqueue t ~dst q

(* {2 Receiving} *)

(* Delivery fibers are named after their route and kind, for traces
   and failure reports.  Formatting a name costs more than the rest of
   a message's dispatch, and a space sees few distinct (src, dst, kind)
   triples, so names are kept once made, up to [max_names]; past that a
   peer sending ever-new kinds gets its names formatted afresh. *)
let max_names = 1024

let delivery_name t ~src ~dst kind =
  let key = (src, dst, kind) in
  match Hashtbl.find_opt t.names key with
  | Some name -> name
  | None ->
      let name = Printf.sprintf "tcp-delivery-%d>%d:%s" src dst kind in
      if Hashtbl.length t.names < max_names then Hashtbl.add t.names key name;
      name

(* The body is parsed whole — src, dst, kind, payload and nothing
   after them — before a route is learned or the delivery spawned, so a
   malformed body acts on nothing: it raises [Frame.Corrupt] and the
   connection dies like any unparseable stream.  Returns the messages
   dispatched (0 or 1). *)
let dispatch_body t c body =
  let r = Wire.Reader.of_string body in
  let src, dst, kind, off, len =
    try
      let src = Wire.Reader.uvarint r in
      let dst = Wire.Reader.uvarint r in
      let kind = Wire.Reader.string r in
      let len = Wire.Reader.uvarint r in
      let off = Wire.Reader.pos r in
      Wire.Reader.skip r len;
      if not (Wire.Reader.at_end r) then
        Wire.Reader.fail r "trailing bytes after the message";
      (src, dst, kind, off, len)
    with Wire.Error { pos; msg } ->
      raise (Frame.Corrupt (Printf.sprintf "bad frame body at %d: %s" pos msg))
  in
  if c.c_accepted then learn t ~src c;
  match Hashtbl.find_opt t.handlers dst with
  | None ->
      drop t;
      0
  | Some h ->
      t.delivered <- t.delivered + 1;
      if Obs.on () then Metrics.incr m_delivered;
      Sched.spawn t.sched ~name:(delivery_name t ~src ~dst kind) (fun () ->
          h ~src ~kind ~payload:body ~off ~len);
      1

let drain_decoder t c =
  let n = ref 0 in
  let rec loop () =
    match Frame.next c.c_dec with
    | Some body ->
        n := !n + dispatch_body t c body;
        loop ()
    | None -> ()
  in
  loop ();
  !n

(* [Unix.read] moves at most this much per call, whatever room it is
   given. *)
let max_read = 65536

let read_at_most fd b off len = Unix.read fd b off (Int.min len max_read)

(* Read what [c]'s socket has straight into its decoder's buffer.  A
   read that got less than it asked for (under [max_read], with room
   left over) ends the pass: [select] is level-triggered, so whatever
   arrives after it is seen on the next pump, and the read that would
   only have returned [EAGAIN] is saved.  Returns [(dispatched, alive)]. *)
let read_into t c =
  let rec loop dispatched =
    match Frame.fill c.c_dec read_at_most c.c_fd with
    | 0 -> (dispatched, false)
    | n -> (
        let short = n < max_read && Frame.room c.c_dec > 0 in
        match drain_decoder t c with
        | k -> if short then (dispatched + k, true) else loop (dispatched + k)
        | exception Frame.Corrupt _ ->
            (* A stream we cannot parse is a dead stream. *)
            (dispatched, false))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (dispatched, true)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop dispatched
    | exception Unix.Unix_error (_, _, _) -> (dispatched, false)
  in
  loop 0

(* {2 Writing} *)

let peer_has_output p = p.p_woff < p.p_out_len || not (Queue.is_empty p.p_queue)

(* Room for [need] bytes in the write buffer, keeping its first [len]:
   doubling up to [gather_cap], the exact frame beyond it. *)
let reserve_out p ~len ~need =
  if need > Bytes.length p.p_out then begin
    let cap =
      if need > gather_cap then need
      else Int.min gather_cap (Int.max 4096 (2 * need))
    in
    let b = Bytes.create cap in
    Bytes.blit p.p_out 0 b 0 len;
    p.p_out <- b
  end

(* Frame [q] at [off] in the write buffer; returns the offset past it. *)
let write_frame p off q =
  Frame.write_header p.p_out off ~body_len:(q.q_size - Frame.overhead);
  let off = Wire.put_uvarint p.p_out (off + Frame.overhead) q.q_src in
  let off = Wire.put_uvarint p.p_out off p.p_addr in
  Wire.put_string p.p_out (Wire.put_string p.p_out off q.q_kind) q.q_payload

(* Refill the drained write buffer from the queue, framing in place
   every message that fits in [gather_cap], or the first alone when it
   does not. *)
let fill_out p =
  let rec gather len =
    match Queue.peek_opt p.p_queue with
    | Some q when len = 0 || len + q.q_size <= gather_cap ->
        ignore (Queue.take p.p_queue);
        p.p_queued_bytes <- p.p_queued_bytes - q.q_size;
        reserve_out p ~len ~need:(len + q.q_size);
        let len = write_frame p len q in
        Queue.add len p.p_ends;
        gather len
    | _ -> len
  in
  p.p_out_len <- gather 0

(* Forget the frames the write offset has passed: they are on the wire
   whole and must never be resent. *)
let rec retire p =
  match Queue.peek_opt p.p_ends with
  | Some stop when stop <= p.p_woff ->
      ignore (Queue.take p.p_ends);
      p.p_wstart <- stop;
      retire p
  | _ -> ()

(* One write per in-flight buffer: the whole of the peer's queue when it
   fits in [gather_cap].  Frames wholly written leave [p_ends]; a short
   write means the socket buffer is full, so the rest waits for the next
   pump's writability. *)
let rec write_pending t p fd =
  if p.p_woff = p.p_out_len then begin
    if not (Queue.is_empty p.p_queue) then begin
      fill_out p;
      write_pending t p fd
    end
  end
  else
    let want = p.p_out_len - p.p_woff in
    match Unix.write fd p.p_out p.p_woff want with
    | n ->
        p.p_woff <- p.p_woff + n;
        retire p;
        if n = want then begin
          if Bytes.length p.p_out > max_retained_out then p.p_out <- Bytes.empty;
          p.p_out_len <- 0;
          p.p_woff <- 0;
          p.p_wstart <- 0;
          write_pending t p fd
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_pending t p fd
    | exception Unix.Unix_error (_, _, _) -> conn_lost t p

let accept_all t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _ -> t.conns <- new_conn fd ~accepted:true :: t.conns
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

(* One pump: write the drained peers, one [select], accept and read,
   then write the peers that became writable.  A peer whose in-flight
   buffer is drained writes its queue before the [select], so on
   loopback that same [select] already sees the bytes readable and one
   pump carries a message from sender to receiver.  A backed-up peer
   (bytes still in flight from an earlier pump) writes only once
   [select] reports it writable, after the read pass, so an EOF that
   arrived meanwhile is seen before more bytes go into the dying
   connection.  A pump that wrote polls rather than waits: it would
   have returned at once on the writable socket anyway. *)
let pump t ~timeout =
  if t.closed then 0
  else begin
    let now = Unix.gettimeofday () in
    let wrote = ref false in
    let soonest = ref Float.infinity in
    let connecting = ref [] and backed_up = ref [] in
    Hashtbl.iter
      (fun _ p ->
        (* Peers with no configured endpoint were learned from accepted
           connections: we cannot dial them, only wait for them to dial
           us again. *)
        let dialable = has_endpoint t p.p_addr in
        if
          p.p_conn = None && dialable && peer_has_output p
          && now >= p.p_next_attempt
        then start_connect t p;
        (match p.p_conn with
        | Some c
          when (not p.p_connecting)
               && p.p_woff = p.p_out_len
               && not (Queue.is_empty p.p_queue) ->
            wrote := true;
            write_pending t p c.c_fd
        | _ -> ());
        match p.p_conn with
        | Some c when p.p_connecting -> connecting := (c, p) :: !connecting
        | Some c -> if peer_has_output p then backed_up := (c, p) :: !backed_up
        | None ->
            (* The soonest reconnect deadline bounds the wait, so backoff
               expiry doesn't stall behind a long select. *)
            if dialable && peer_has_output p then
              soonest :=
                Float.min !soonest (Float.max 0.0 (p.p_next_attempt -. now)))
      t.peers;
    (* Listed after the walk: a write that failed there dropped its
       connection, perhaps under a peer walked before it. *)
    let conns = t.conns in
    let rds = List.map (fun c -> c.c_fd) conns in
    let rds = Hashtbl.fold (fun _ fd rds -> fd :: rds) t.listeners rds in
    let wrs =
      List.filter_map
        (fun (c, _) -> if c.c_open then Some c.c_fd else None)
        (!connecting @ !backed_up)
    in
    (* A negative caller timeout means "block" and must not enter the
       [Float.min]: it would undercut every deadline and the pending
       reconnects would never fire. *)
    let timeout = if !wrote then 0.0 else timeout in
    let timeout =
      if !soonest = Float.infinity then timeout
      else if timeout < 0.0 then !soonest
      else Float.min timeout !soonest
    in
    match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
    | readable, writable, _ ->
        let dispatched = ref 0 in
        (* Completed (or failed) connection attempts first, so their
           queued frames go out in this pump. *)
        List.iter
          (fun (c, p) ->
            if List.memq c.c_fd writable then
              match Unix.getsockopt_error c.c_fd with
              | None ->
                  p.p_connecting <- false;
                  p.p_backoff <- initial_backoff;
                  t.conns <- c :: t.conns;
                  if peer_has_output p then write_pending t p c.c_fd
              | Some _ -> conn_lost t p)
          !connecting;
        Hashtbl.iter
          (fun _ lfd -> if List.memq lfd readable then accept_all t lfd)
          t.listeners;
        (* One read pass over the connections selected on.  One dropped
           earlier in the pass (superseded by [learn]) is skipped: its fd
           is closed. *)
        List.iter
          (fun c ->
            if c.c_open && List.memq c.c_fd readable then begin
              let n, alive = read_into t c in
              dispatched := !dispatched + n;
              if not alive then drop_conn t c
            end)
          conns;
        List.iter
          (fun (c, p) ->
            if is_current p c && List.memq c.c_fd writable && peer_has_output p
            then write_pending t p c.c_fd)
          !backed_up;
        !dispatched
  end

let connect t addr =
  let p = peer_for t addr in
  if p.p_conn = None && has_endpoint t addr then start_connect t p

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Messages still pending — queued towards an unreachable peer, or
       in a frame not wholly written — never reach the receiver: count
       them dropped. *)
    Hashtbl.iter (fun _ fd -> close_quietly fd) t.listeners;
    Hashtbl.reset t.listeners;
    Hashtbl.iter
      (fun _ p ->
        Queue.iter (fun _ -> drop t) p.p_ends;
        Queue.iter (fun _ -> drop t) p.p_queue;
        Option.iter (drop_conn t) p.p_conn)
      t.peers;
    List.iter (drop_conn t) t.conns;
    Hashtbl.reset t.peers
  end

let stats t =
  {
    Transport.sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    dropped_src_crashed = 0;
    dropped_dst_crashed = 0;
    duplicated = 0;
    bytes = t.bytes;
    reconnects = t.reconnects;
  }

let stats_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_stats t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.bytes <- 0;
  t.reconnects <- 0;
  Hashtbl.reset t.by_kind

let transport t =
  {
    Transport.t_name = "tcp";
    t_send = (fun ~src ~dst ~kind payload -> send t ~src ~dst ~kind payload);
    t_post = (fun ~src ~dst ~kind payload -> send t ~src ~dst ~kind payload);
    t_flush = ignore;
    t_set_handler = (fun a h -> Hashtbl.replace t.handlers a h);
    t_connect = (fun a -> connect t a);
    t_pump = (fun ~timeout -> pump t ~timeout);
    t_close = (fun () -> close t);
    t_stats = (fun () -> stats t);
    t_stats_by_kind = (fun () -> stats_by_kind t);
    t_reset_stats = (fun () -> reset_stats t);
    t_faults = Transport.no_faults ~name:"tcp";
  }
