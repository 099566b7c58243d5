(* Tests for the transport layer: the length-framed wire codec (exact
   behaviours plus qcheck properties over adversarially chunked
   streams), the real TCP backend over loopback, and the fault-
   injection decorator's gate semantics and accounting. *)

module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Transport_sim = Netobj_transport.Transport_sim
module Tcp = Netobj_transport.Tcp
module Faulty = Netobj_transport.Faulty
module Frame = Netobj_transport.Frame
module Wire = Netobj_pickle.Wire
module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Scenario = Netobj_chaos.Scenario
module Metrics = Netobj_obs.Metrics

(* --- frame codec: exact behaviours -------------------------------------- *)

let test_frame_exact () =
  Alcotest.(check string) "body" "hello"
    (Frame.decode_exact (Frame.encode "hello"));
  Alcotest.(check string) "empty body" ""
    (Frame.decode_exact (Frame.encode ""));
  Alcotest.(check int) "overhead" 5 (String.length (Frame.encode ""));
  (* Header is big-endian length (flag + body) then the flag byte. *)
  Alcotest.(check string) "wire bytes" "\x00\x00\x00\x06\x00hello"
    (Frame.encode "hello")

(* A frame has one mode: flag bytes 1, 2 and 3 (compression, signing
   and encryption on dft's wire) are Corrupt like any other non-zero
   flag, named in the message, and decode_exact rejects them too. *)
let test_frame_reserved_flags () =
  List.iter
    (fun byte ->
      let wire =
        Wire.Writer.with_pooled (fun w ->
            Wire.Writer.u32_be w 5;
            Wire.Writer.byte w byte;
            Wire.Writer.raw w "body";
            Bytes.unsafe_to_string (Wire.Writer.to_bytes w))
      in
      let d = Frame.decoder () in
      Frame.feed d wire;
      (match Frame.next d with
      | _ -> Alcotest.failf "flag 0x%02x: expected Corrupt" byte
      | exception Frame.Corrupt msg ->
          Alcotest.(check string)
            (Printf.sprintf "flag 0x%02x named" byte)
            (Printf.sprintf "unknown flag byte 0x%02x" byte)
            msg);
      match Frame.decode_exact wire with
      | _ -> Alcotest.failf "flag 0x%02x: decode_exact accepted it" byte
      | exception Frame.Corrupt _ -> ())
    [ 1; 2; 3 ]

let test_frame_corrupt () =
  let expect_corrupt name s =
    let d = Frame.decoder () in
    Frame.feed d s;
    match Frame.next d with
    | _ -> Alcotest.failf "%s: expected Corrupt" name
    | exception Frame.Corrupt _ -> ()
  in
  expect_corrupt "unknown flag" "\x00\x00\x00\x01\x09";
  expect_corrupt "zero length" "\x00\x00\x00\x00\x00";
  expect_corrupt "huge length" "\xff\xff\xff\xff\x00";
  (match Frame.decode_exact (Frame.encode "a" ^ "junk") with
  | _ -> Alcotest.fail "trailing bytes: expected Corrupt"
  | exception Frame.Corrupt _ -> ());
  match Frame.decode_exact "\x00\x00\x00\x02\x00" with
  | _ -> Alcotest.fail "truncated: expected Corrupt"
  | exception Frame.Corrupt _ -> ()

let test_frame_one_byte_feed () =
  let bodies = [ "alpha"; ""; "bravo-charlie"; "\x00\xff\x01" ] in
  let wire = String.concat "" (List.map Frame.encode bodies) in
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Frame.feed d (String.make 1 c);
      let rec drain () =
        match Frame.next d with
        | Some b ->
            got := b :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "one-byte feed" bodies (List.rev !got);
  Alcotest.(check int) "nothing pending" 0 (Frame.pending d)

(* --- frame codec: properties --------------------------------------------- *)

let drain_all d =
  let rec loop acc =
    match Frame.next d with
    | Some b -> loop (b :: acc)
    | None -> List.rev acc
  in
  loop []

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode identity" ~count:300 QCheck.string
    (fun s ->
      Frame.decode_exact (Frame.encode s) = s)

(* Split the concatenation of many frames at positions driven by the
   seed — byte-at-a-time, mid-length-prefix, several frames per chunk —
   and require the decoder to recover exactly the input bodies. *)
let prop_chunked =
  QCheck.Test.make ~name:"decode over adversarial chunking" ~count:200
    QCheck.(pair (small_list string) small_int)
    (fun (bodies, seed) ->
      let rng = Netobj_util.Rng.create (Int64.of_int (seed + 1)) in
      let wire = String.concat "" (List.map Frame.encode bodies) in
      let d = Frame.decoder () in
      let got = ref [] in
      let pos = ref 0 in
      while !pos < String.length wire do
        let n =
          1 + Netobj_util.Rng.int rng (min 11 (String.length wire - !pos))
        in
        Frame.feed d ~off:!pos ~len:n wire;
        pos := !pos + n;
        got := !got @ drain_all d
      done;
      !got = bodies && Frame.pending d = 0)

let prop_torn_tail =
  QCheck.Test.make ~name:"torn tail decodes to clean prefix" ~count:200
    QCheck.(triple (small_list string) string small_int)
    (fun (bodies, last, cut) ->
      let tail = Frame.encode last in
      (* Keep a strict prefix of the final frame: everything before it
         must decode cleanly and the torn bytes must sit in [pending]. *)
      let keep = cut mod String.length tail in
      let wire =
        String.concat "" (List.map Frame.encode bodies)
        ^ String.sub tail 0 keep
      in
      let d = Frame.decoder () in
      Frame.feed d wire;
      let got = drain_all d in
      got = bodies && Frame.pending d = keep)

let frame_props = [ prop_roundtrip; prop_chunked; prop_torn_tail ]

(* --- tcp over loopback ---------------------------------------------------- *)

let lo = "127.0.0.1"

let ep port = { Tcp.host = lo; port }

(* Containers without a loopback interface skip rather than fail.
   [with_tcp'] also hands [f] the backend, for its bound ports. *)
let with_tcp' ~serving ~endpoints f =
  let sched = Sched.create () in
  match Tcp.create ~sched ~serving ~endpoints () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | t ->
      let tr = Tcp.transport t in
      Fun.protect
        ~finally:(fun () -> Transport.close tr)
        (fun () -> f sched t tr)

let with_tcp ~serving ~endpoints f =
  with_tcp' ~serving ~endpoints (fun sched _ tr -> f sched tr)

(* Alternate draining the cooperative scheduler (handler fibers) with
   real socket I/O until [until] holds. *)
let drive ?(deadline = 10.0) sched tr ~until =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    ignore (Sched.run sched);
    if not (until ()) then
      if Unix.gettimeofday () -. t0 > deadline then
        Alcotest.fail "tcp drive: timed out"
      else begin
        ignore (Transport.pump tr ~timeout:0.02);
        loop ()
      end
  in
  loop ()

let test_tcp_roundtrip () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src ~kind ~payload ~off ~len ->
          got := (src, kind, String.sub payload off len) :: !got);
      Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "hello over tcp";
      drive sched tr ~until:(fun () -> !got <> []);
      Alcotest.(check (list (triple int string string)))
        "delivered"
        [ (0, "ping", "hello over tcp") ]
        !got;
      let s = Transport.stats tr in
      Alcotest.(check int) "sent" 1 s.Transport.sent;
      Alcotest.(check int) "delivered" 1 s.Transport.delivered;
      Alcotest.(check int) "dropped" 0 s.Transport.dropped;
      Alcotest.(check (list (pair string (pair int int))))
        "by kind"
        [ ("ping", (1, 14)) ]
        (Transport.stats_by_kind tr))

(* Frames either side of the gather buffer's 64 KiB cap, queued in one
   instant: small ones are gathered, one too big to fit is written on
   its own, and one that fits exactly fills a gather buffer.  All must
   arrive whole and in send order. *)
let test_tcp_mixed_sizes () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
          got := String.sub payload off len :: !got);
      (* Around the payload, the body holds src and dst (a byte each),
         the kind "m" (2 bytes) and the payload's length (3). *)
      let fitting = (64 * 1024) - Frame.overhead - 2 - 2 - 3 in
      let sent =
        List.mapi
          (fun i n -> String.make n (Char.chr (Char.code 'a' + i)))
          [ 10; 100_000; 20; fitting; 30; 70_000; 40 ]
      in
      List.iter (Transport.send tr ~src:0 ~dst:1 ~kind:"m") sent;
      drive sched tr ~until:(fun () -> List.length !got = List.length sent);
      Alcotest.(check (list string)) "whole, in order" sent (List.rev !got))

(* A message queued towards a dead port survives connect failures and
   arrives once somebody starts listening there — exercising the capped
   backoff reconnect path end to end. *)
let test_tcp_reconnect () =
  match Scenario.free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[ 0 ] ~endpoints:[ (0, ep 0); (1, ep port) ]
        (fun sched tr ->
          Transport.send tr ~src:0 ~dst:1 ~kind:"late" "finally";
          (* Let a few connection attempts fail before the peer exists. *)
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.3 do
            ignore (Transport.pump tr ~timeout:0.02)
          done;
          with_tcp ~serving:[ 1 ] ~endpoints:[ (1, ep port) ]
            (fun sched2 tr2 ->
              let got = ref [] in
              Transport.set_handler tr2 1 (fun ~src ~kind ~payload ~off ~len ->
                  got := (src, kind, String.sub payload off len) :: !got);
              let t0 = Unix.gettimeofday () in
              while !got = [] && Unix.gettimeofday () -. t0 < 10.0 do
                ignore (Transport.pump tr ~timeout:0.01);
                ignore (Transport.pump tr2 ~timeout:0.01);
                ignore (Sched.run sched);
                ignore (Sched.run sched2)
              done;
              Alcotest.(check (list (triple int string string)))
                "delivered after reconnect"
                [ (0, "late", "finally") ]
                !got;
              let s = Transport.stats tr in
              Alcotest.(check bool) "reconnects counted" true
                (s.Transport.reconnects >= 1)))

(* A raw listening socket on an ephemeral loopback port, so a test
   controls exactly what the far end reads and writes; [None] (after a
   skip notice) where loopback is unavailable.  [rcvbuf] shrinks the
   receive buffer accepted sockets inherit, so a receiver that stops
   reading backs the sender up quickly.  [f] gets a closer for the
   listener, safe to call early: the listener is closed exactly once. *)
let with_raw_listener ?rcvbuf f =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | lfd -> (
      let closed = ref false in
      let close () =
        if not !closed then begin
          closed := true;
          try Unix.close lfd with Unix.Unix_error _ -> ()
        end
      in
      Fun.protect ~finally:close @@ fun () ->
      match
        Unix.setsockopt lfd Unix.SO_REUSEADDR true;
        Option.iter (Unix.setsockopt_int lfd Unix.SO_RCVBUF) rcvbuf;
        Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen lfd 4;
        Unix.set_nonblock lfd;
        match Unix.getsockname lfd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.printf "skipping: loopback unavailable (%s)\n%!"
            (Unix.error_message e)
      | port -> f lfd port close)

(* Accept on [lfd], pumping [tr] meanwhile so its connect can finish. *)
let accept_pumping sched tr lfd =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    match Unix.accept lfd with
    | fd, _ -> fd
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        if Unix.gettimeofday () -. t0 > 10.0 then
          Alcotest.fail "accept: timed out"
        else begin
          ignore (Transport.pump tr ~timeout:0.02);
          ignore (Sched.run sched);
          loop ()
        end
  in
  loop ()

let pump_for tr seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Transport.pump tr ~timeout:0.02)
  done

(* Read [fd] until nothing more arrives for [quiet] seconds (or EOF),
   feeding every byte to [dec]. *)
let drain_raw ?(quiet = 0.2) fd dec =
  let buf = Bytes.create 65536 in
  let rec loop () =
    match Unix.select [ fd ] [] [] quiet with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Frame.feed dec (Bytes.sub_string buf 0 n);
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
            loop ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
  in
  loop ()

(* The payloads of every complete frame in [dec], in wire order. *)
let decoded_payloads dec =
  let rec loop acc =
    match Frame.next dec with
    | None -> List.rev acc
    | Some body ->
        let r = Wire.Reader.of_string body in
        let _src = Wire.Reader.uvarint r in
        let _dst = Wire.Reader.uvarint r in
        let _kind = Wire.Reader.string r in
        loop (Wire.Reader.string r :: acc)
  in
  loop []

(* A reply torn mid-frame by a dying connection must not pollute the
   stream of the next connection: the dial-out decoder is reset on
   connection loss, so the whole reply resent after reconnect decodes
   cleanly.  The remote end is a raw socket so the test controls frame
   boundaries exactly: it sends a 3-byte prefix of the reply (a torn
   length field), kills the connection, then resends the reply whole on
   the client's redial. *)
let test_tcp_torn_reply_reconnect () =
  with_raw_listener @@ fun lfd port _close ->
  with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched tr ->
      let write_all fd s =
        let off = ref 0 in
        while !off < String.length s do
          off := !off + Unix.write_substring fd s !off (String.length s - !off)
        done
      in
      let reply =
        Frame.encode
          (Wire.Writer.with_pooled (fun w ->
               Wire.Writer.uvarint w 1;
               Wire.Writer.uvarint w 0;
               Wire.Writer.string w "pong";
               Wire.Writer.string w "resent whole";
               Bytes.unsafe_to_string (Wire.Writer.to_bytes w)))
      in
      let got = ref [] in
      Transport.set_handler tr 0 (fun ~src ~kind ~payload ~off ~len ->
          got := (src, kind, String.sub payload off len) :: !got);
      Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "one";
      let afd = accept_pumping sched tr lfd in
      write_all afd (String.sub reply 0 3);
      (* Let the client buffer the torn prefix... *)
      pump_for tr 0.2;
      (* ...then tear the connection under it. *)
      Unix.close afd;
      Transport.send tr ~src:0 ~dst:1 ~kind:"ping" "two";
      let afd2 = accept_pumping sched tr lfd in
      Fun.protect ~finally:(fun () ->
          try Unix.close afd2 with Unix.Unix_error _ -> ())
      @@ fun () ->
      write_all afd2 reply;
      drive sched tr ~until:(fun () -> !got <> []);
      Alcotest.(check (list (triple int string string)))
        "reply decodes cleanly after reconnect"
        [ (1, "pong", "resent whole") ]
        !got)

(* Numbered frames, each its own [send], padded so a gathered write
   spans many of them. *)
let numbered_frames = 3000

let numbered ~pad i = Printf.sprintf "%06d%s" i (String.make pad 'x')

let number_of payload = int_of_string (String.sub payload 0 6)

(* A gathered write torn by a dying connection: the receiver stops
   reading until the sender's socket buffer is full, so the sender is
   left with a partly written gather buffer.  The receiver then reads
   everything that did reach the wire and dies.  The sender reconnects
   to a fresh listener on the same port and must resume at the first
   frame not wholly written: ids arrive strictly increasing across both
   receivers (no frame wholly written is resent), and every frame after
   the loss point arrives.  Returns whether the loss tore a frame, or
   [None] when loopback is unavailable. *)
let torn_gather_attempt ~pad =
  let result = ref None in
  (with_raw_listener ~rcvbuf:4096 @@ fun lfd port close_listener ->
  with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched tr ->
      for i = 0 to numbered_frames - 1 do
        Transport.send tr ~src:0 ~dst:1 ~kind:"n" (numbered ~pad i)
      done;
      let afd = accept_pumping sched tr lfd in
      (* Never read while the sender fills its socket buffer... *)
      pump_for tr 0.3;
      (* ...then take everything it wrote, and die. *)
      let dec = Frame.decoder () in
      drain_raw afd dec;
      let first = List.map number_of (decoded_payloads dec) in
      result := Some (Frame.pending dec > 0);
      Unix.close afd;
      close_listener ();
      Alcotest.(check bool) "sender backed up" true
        (List.length first < numbered_frames);
      with_tcp ~serving:[ 1 ] ~endpoints:[ (1, ep port) ] (fun sched2 tr2 ->
          let second = ref [] in
          Transport.set_handler tr2 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
              second := number_of (String.sub payload off len) :: !second);
          let t0 = Unix.gettimeofday () in
          while
            (match !second with
            | last :: _ -> last < numbered_frames - 1
            | [] -> true)
            && Unix.gettimeofday () -. t0 < 10.0
          do
            ignore (Transport.pump tr ~timeout:0.01);
            ignore (Transport.pump tr2 ~timeout:0.01);
            ignore (Sched.run sched);
            ignore (Sched.run sched2)
          done;
          let ids = first @ List.rev !second in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          Alcotest.(check bool) "strictly increasing, none twice" true
            (increasing ids);
          Alcotest.(check (option int)) "resumed at the first unsent frame"
            (Some (List.length first))
            (List.nth_opt (List.rev !second) 0);
          Alcotest.(check (option int)) "ran to the last frame"
            (Some (numbered_frames - 1))
            (List.nth_opt !second 0);
          Alcotest.(check bool) "reconnected" true
            ((Transport.stats tr).Transport.reconnects >= 1))));
  !result

(* Where the kernel's last accepted byte falls is not ours to choose: it
   can land on a frame boundary, leaving nothing torn.  Each attempt
   checks resumption either way; a new padding length moves the
   boundaries until some attempt does tear a frame. *)
let test_tcp_torn_gather_reconnect () =
  let rec go pad tries =
    match torn_gather_attempt ~pad with
    | None | Some true -> ()
    | Some false when tries > 1 -> go (pad + 1) (tries - 1)
    | Some false -> Alcotest.fail "no attempt tore a frame"
  in
  go 1017 5

(* Closing with work still pending — frames queued to an unreachable
   peer — must account the messages as dropped. *)
let test_tcp_close_drops_pending () =
  match Scenario.free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[ 0 ] ~endpoints:[ (0, ep 0); (1, ep port) ]
        (fun _sched tr ->
          Transport.send tr ~src:0 ~dst:1 ~kind:"a" "queued";
          Transport.send tr ~src:0 ~dst:1 ~kind:"b" "also queued";
          Transport.send tr ~src:0 ~dst:1 ~kind:"c" "queued, never wired";
          Transport.close tr;
          let s = Transport.stats tr in
          Alcotest.(check int) "pending counted dropped" 3 s.Transport.dropped);
  (* Frames in the in-flight buffer but not wholly written are dropped
     too: against a receiver that never reads, the sender backs up with
     a gathered write in flight.  Everything wholly written still
     arrives after the close, so drops and arrivals must add up. *)
  with_raw_listener ~rcvbuf:4096 @@ fun lfd port _close ->
  with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched tr ->
      for i = 0 to numbered_frames - 1 do
        Transport.send tr ~src:0 ~dst:1 ~kind:"n" (numbered ~pad:1017 i)
      done;
      let afd = accept_pumping sched tr lfd in
      Fun.protect ~finally:(fun () -> Unix.close afd) @@ fun () ->
      pump_for tr 0.3;
      Transport.close tr;
      let dec = Frame.decoder () in
      drain_raw afd dec;
      let arrived = List.length (decoded_payloads dec) in
      Alcotest.(check bool) "sender backed up" true (arrived < numbered_frames);
      Alcotest.(check int) "every frame not wholly written dropped"
        (numbered_frames - arrived)
        (Transport.stats tr).Transport.dropped)

(* A blocking pump (negative timeout) must still wake for reconnect
   backoff deadlines instead of selecting forever on an empty fd set. *)
let test_tcp_blocking_pump_backoff () =
  match Scenario.free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun _sched tr ->
          Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
          for _ = 1 to 5 do
            ignore (Transport.pump tr ~timeout:(-1.0))
          done;
          Alcotest.(check bool) "pump returned" true true)

(* A drained peer writes before the pump's [select], so on loopback the
   same pump reads what it wrote: once the connection is warm, one
   non-waiting pump carries a message from sender to receiver. *)
let test_tcp_same_pump_delivery () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref 0 in
      Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
          incr got);
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "warm";
      drive sched tr ~until:(fun () -> !got = 1);
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "one pump";
      Alcotest.(check int) "dispatched by the pump that wrote" 1
        (Transport.pump tr ~timeout:0.0);
      ignore (Sched.run sched);
      Alcotest.(check int) "handler ran" 2 !got)

(* A pump that wrote must poll, not wait out its timeout: the receiver
   here accepts but never reads or replies, so nothing would wake a
   waiting [select]. *)
let test_tcp_pump_after_write_polls () =
  with_raw_listener @@ fun lfd port _close ->
  with_tcp ~serving:[] ~endpoints:[ (1, ep port) ] (fun sched tr ->
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "connect";
      let afd = accept_pumping sched tr lfd in
      Fun.protect ~finally:(fun () -> Unix.close afd) @@ fun () ->
      pump_for tr 0.1;
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "then this";
      let t0 = Unix.gettimeofday () in
      ignore (Transport.pump tr ~timeout:2.0);
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "returned promptly (%.3f s)" waited)
        true (waited < 0.5))

(* A blocking loopback connection to [port], for writing raw bytes. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A well-formed frame whose body does not parse whole must act on
   nothing: [pump] does not raise, nothing is delivered, and the
   connection is closed like any other unparseable stream.  Two bodies:
   a payload whose length byte promises more than the body holds, and
   a whole message followed by a second one (a frame carries exactly
   one).  A fresh connection from the same source still delivers. *)
let test_tcp_malformed_body () =
  with_tcp' ~serving:[ 0 ] ~endpoints:[ (0, ep 0) ] (fun sched tcp tr ->
      let got = ref [] in
      Transport.set_handler tr 0 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
          got := String.sub payload off len :: !got);
      let port = Tcp.bound_port tcp 0 in
      let send_raw fd body =
        let frame = Frame.encode body in
        ignore (Unix.write_substring fd frame 0 (String.length frame))
      in
      List.iter
        (fun body ->
          let bad = raw_connect port in
          Fun.protect ~finally:(fun () -> Unix.close bad) (fun () ->
              send_raw bad body;
              let buf = Bytes.create 16 in
              let eof = ref false in
              let t0 = Unix.gettimeofday () in
              while (not !eof) && Unix.gettimeofday () -. t0 < 10.0 do
                ignore (Transport.pump tr ~timeout:0.02);
                ignore (Sched.run sched);
                match Unix.select [ bad ] [] [] 0.0 with
                | [], _, _ -> ()
                | _ -> eof := Unix.read bad buf 0 (Bytes.length buf) = 0
              done;
              Alcotest.(check bool) "connection closed" true !eof;
              Alcotest.(check (list string)) "nothing delivered" [] !got))
        [
          (* src 1, dst 0, kind "m", a payload of 5 bytes holding 2 *)
          "\x01\x00\x01m\x05ok";
          (* src 1, dst 0, kind "a" "one", then kind "b" "two" *)
          "\x01\x00\x01a\x03one\x01b\x03two";
        ];
      let good = raw_connect port in
      Fun.protect ~finally:(fun () -> Unix.close good) (fun () ->
          send_raw good "\x01\x00\x01m\x02ok";
          drive sched tr ~until:(fun () -> !got <> []);
          Alcotest.(check (list string)) "fresh connection delivers" [ "ok" ]
            !got))

(* --- faulty decorator ----------------------------------------------------- *)

let faulty_pair ?(seed = 42L) () =
  let sched = Sched.create () in
  let net = Net.create ~sched ~seed () in
  let tr = Faulty.wrap ~sched ~seed (Transport_sim.of_net net) in
  (sched, tr)

let test_faulty_send_gate () =
  let sched, tr = faulty_pair () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.crash tr 0;
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  ignore (Sched.run sched);
  let s = Transport.stats tr in
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped" 1 s.Transport.dropped;
  Alcotest.(check int) "src-crashed" 1 s.Transport.dropped_src_crashed;
  Alcotest.(check int) "never reached the wire" 0 s.Transport.sent;
  Transport.restore tr 0;
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  ignore (Sched.run sched);
  Alcotest.(check int) "delivered after restore" 1 !got

(* A crash injected while the message is in flight is caught by the
   decorator's receive gate — the path real sockets rely on. *)
let test_faulty_receive_gate () =
  let sched, tr = faulty_pair () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
  Transport.crash tr 1;
  ignore (Sched.run sched);
  let s = Transport.stats tr in
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped in flight" 1 s.Transport.dropped;
  Alcotest.(check int) "dst-crashed" 1 s.Transport.dropped_dst_crashed;
  Alcotest.(check int) "delivered stat" 0 s.Transport.delivered

let test_faulty_partition_filter () =
  let sched, tr = faulty_pair () in
  let got = ref [] in
  Transport.set_handler tr 1 (fun ~src:_ ~kind ~payload:_ ~off:_ ~len:_ ->
      got := kind :: !got);
  Transport.set_partitioned tr 0 1 true;
  Transport.send tr ~src:0 ~dst:1 ~kind:"cut" "x";
  ignore (Sched.run sched);
  Alcotest.(check (list string)) "partitioned" [] !got;
  Transport.heal_all tr;
  Transport.set_filter tr (Some (fun ~src:_ ~dst:_ ~kind -> kind <> "bad"));
  Transport.send tr ~src:0 ~dst:1 ~kind:"bad" "x";
  Transport.send tr ~src:0 ~dst:1 ~kind:"good" "x";
  ignore (Sched.run sched);
  Transport.set_filter tr None;
  Alcotest.(check (list string)) "filter" [ "good" ] !got;
  Alcotest.(check int) "two gate drops" 2 (Transport.stats tr).Transport.dropped

let test_faulty_burst_deterministic () =
  let sched, tr = faulty_pair ~seed:7L () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0 ~until:infinity ();
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
  done;
  ignore (Sched.run sched);
  Alcotest.(check int) "total loss" 0 !got;
  Alcotest.(check int) "all dropped" 5 (Transport.stats tr).Transport.dropped;
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:0.0 ~until:neg_infinity ();
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
  done;
  ignore (Sched.run sched);
  Alcotest.(check int) "burst expired" 5 !got

(* Loss and duplication keep separate windows on one edge: arming dup
   leaves a running loss burst in force, and closing the loss burst
   leaves the dup burst in force. *)
let test_faulty_burst_axes () =
  let sched, tr = faulty_pair ~seed:7L () in
  let got = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  let send_five () =
    for _ = 1 to 5 do
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
    done;
    ignore (Sched.run sched)
  in
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:1.0 ~until:infinity ();
  Transport.set_burst tr ~src:0 ~dst:1 ~dup:1.0 ~until:infinity ();
  send_five ();
  Alcotest.(check int) "loss still applies" 0 !got;
  Alcotest.(check int) "all dropped" 5 (Transport.stats tr).Transport.dropped;
  Transport.set_burst tr ~src:0 ~dst:1 ~loss:0.0 ~until:neg_infinity ();
  send_five ();
  Alcotest.(check int) "dup still applies" 10 !got;
  Alcotest.(check int) "all duplicated" 5
    (Transport.stats tr).Transport.duplicated

(* The [reason] of every ["drop"] instant in the current trace. *)
let drop_reasons () =
  List.filter_map
    (fun e ->
      match (e.Trace.name, List.assoc_opt "reason" e.Trace.args) with
      | "drop", Some (Trace.S r) -> Some r
      | _ -> None)
    (Trace.events (Obs.trace ()))

let with_obs f =
  Metrics.reset Metrics.global;
  Obs.enable ~capacity:4096 ();
  Fun.protect ~finally:Obs.disable f

(* Over an opaque backend a spike stalls the delivery fiber; the receive
   gate must run after the stall, so a partition that forms mid-stall
   still eats the message. *)
let test_faulty_gate_after_stall () =
  with_obs (fun () ->
      let sched = Sched.create () in
      let net =
        Net.create ~sched ~seed:42L ~edge:(Net.fifo_edge ~latency:0.005 ()) ()
      in
      let tr = Faulty.wrap ~sched ~seed:42L (Transport_sim.of_net net) in
      let got = ref 0 in
      Transport.set_handler tr 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
          incr got);
      (* arrives at 5 ms, then stalls 100 × 1 ms; the cut forms at 55 ms *)
      Transport.set_latency_spike tr ~src:0 ~dst:1 ~factor:100.0 ~until:infinity;
      Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x";
      Sched.timer sched 0.055 (fun () -> Transport.set_partitioned tr 0 1 true);
      ignore (Sched.run sched);
      let s = Transport.stats tr in
      Alcotest.(check int) "nothing delivered" 0 !got;
      Alcotest.(check int) "dropped" 1 s.Transport.dropped;
      Alcotest.(check int) "delivered stat" 0 s.Transport.delivered;
      Alcotest.(check (list string)) "reason" [ "partitioned" ] (drop_reasons ()))

(* TCP runs report fault drops exactly as sim runs do: a [drop] instant
   per message with its reason, and the [net.dropped] metric. *)
let test_faulty_tcp_drop_obs () =
  with_obs (fun () ->
      with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
        (fun sched tcp ->
          let tr = Faulty.wrap ~sched ~seed:5L tcp in
          Transport.set_handler tr 1
            (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
              Alcotest.fail "nothing must be delivered");
          Transport.set_partitioned tr 0 1 true;
          Transport.send tr ~src:0 ~dst:1 ~kind:"m" "cut";
          Transport.heal_all tr;
          Transport.crash tr 1;
          Transport.send tr ~src:0 ~dst:1 ~kind:"m" "dead";
          ignore (Sched.run sched);
          ignore (Transport.pump tr ~timeout:0.01);
          Alcotest.(check (list string))
            "reasons" [ "partitioned"; "dst-crashed" ] (drop_reasons ());
          Alcotest.(check int) "net.dropped" 2
            (Metrics.counter_value (Metrics.counter Metrics.global "net.dropped"));
          let s = Transport.stats tr in
          Alcotest.(check int) "dropped" 2 s.Transport.dropped;
          Alcotest.(check int) "dst-crashed" 1 s.Transport.dropped_dst_crashed;
          Alcotest.(check int) "never reached the wire" 0 s.Transport.sent))

(* Delivery fibers are named "tcp-delivery-src>dst:kind" whether the
   name was kept from an earlier message or, past the bound on kept
   names, formatted afresh. *)
let test_tcp_delivery_names () =
  with_obs (fun () ->
      with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
        (fun sched tr ->
          let got = ref 0 in
          Transport.set_handler tr 1
            (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ -> incr got);
          let fresh = List.init 1030 (Printf.sprintf "k%d") in
          let again = [ "k0"; "k1"; "k1028"; "k1029"; "k0" ] in
          let kinds = fresh @ again in
          List.iter (fun kind -> Transport.send tr ~src:0 ~dst:1 ~kind "") kinds;
          drive sched tr ~until:(fun () -> !got = List.length kinds);
          let spawned =
            List.filter_map
              (fun e ->
                match (e.Trace.name, List.assoc_opt "fiber" e.Trace.args) with
                | "spawn", Some (Trace.S f)
                  when String.starts_with ~prefix:"tcp-delivery-" f ->
                    Some f
                | _ -> None)
              (Trace.events (Obs.trace ()))
          in
          Alcotest.(check (list string))
            "names"
            (List.map (Printf.sprintf "tcp-delivery-0>1:%s") kinds)
            spawned))

(* Bare TCP advertises no fault hooks; predicates answer "no fault". *)
let test_no_faults () =
  let nf = Transport.no_faults ~name:"tcp" in
  Alcotest.(check bool) "not crashed" false (nf.Transport.f_is_crashed 0);
  Alcotest.(check bool) "not partitioned" false (nf.Transport.f_partitioned 0 1);
  match nf.Transport.f_crash 0 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "transport"
    [
      ( "frame",
        [
          Alcotest.test_case "exact codec" `Quick test_frame_exact;
          Alcotest.test_case "corrupt inputs" `Quick test_frame_corrupt;
          Alcotest.test_case "reserved flags" `Quick test_frame_reserved_flags;
          Alcotest.test_case "one-byte feed" `Quick test_frame_one_byte_feed;
        ] );
      ("frame props", List.map QCheck_alcotest.to_alcotest frame_props);
      ( "tcp",
        [
          Alcotest.test_case "loopback roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "frames around the gather cap" `Quick
            test_tcp_mixed_sizes;
          Alcotest.test_case "reconnect with backoff" `Quick test_tcp_reconnect;
          Alcotest.test_case "torn reply survives reconnect" `Quick
            test_tcp_torn_reply_reconnect;
          Alcotest.test_case "torn gathered write resumes at a frame" `Quick
            test_tcp_torn_gather_reconnect;
          Alcotest.test_case "close drops pending" `Quick
            test_tcp_close_drops_pending;
          Alcotest.test_case "blocking pump honours backoff" `Quick
            test_tcp_blocking_pump_backoff;
          Alcotest.test_case "one pump carries a message" `Quick
            test_tcp_same_pump_delivery;
          Alcotest.test_case "a pump that wrote polls" `Quick
            test_tcp_pump_after_write_polls;
          Alcotest.test_case "malformed body acts on nothing" `Quick
            test_tcp_malformed_body;
          Alcotest.test_case "delivery fiber names" `Quick
            test_tcp_delivery_names;
        ] );
      ( "faulty",
        [
          Alcotest.test_case "send gate" `Quick test_faulty_send_gate;
          Alcotest.test_case "receive gate" `Quick test_faulty_receive_gate;
          Alcotest.test_case "partition and filter" `Quick
            test_faulty_partition_filter;
          Alcotest.test_case "gate after spike stall" `Quick
            test_faulty_gate_after_stall;
          Alcotest.test_case "drop reasons over tcp" `Quick
            test_faulty_tcp_drop_obs;
          Alcotest.test_case "burst windows" `Quick
            test_faulty_burst_deterministic;
          Alcotest.test_case "burst axes independent" `Quick
            test_faulty_burst_axes;
          Alcotest.test_case "bare backend refuses faults" `Quick
            test_no_faults;
        ] );
    ]
