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

(* --- frame codec: exact behaviours -------------------------------------- *)

let test_frame_exact () =
  let m, body = Frame.decode_exact (Frame.encode "hello") in
  Alcotest.(check bool) "raw mode" true (m = Frame.Raw);
  Alcotest.(check string) "body" "hello" body;
  let m, body = Frame.decode_exact (Frame.encode "") in
  Alcotest.(check bool) "empty raw" true (m = Frame.Raw);
  Alcotest.(check string) "empty body" "" body;
  Alcotest.(check int) "overhead" 5 (String.length (Frame.encode ""));
  (match Frame.encode ~mode:Frame.Compressed "x" with
  | _ -> Alcotest.fail "expected Unsupported_mode"
  | exception Frame.Unsupported_mode Frame.Compressed -> ());
  (* Header is big-endian length (flag + body) then the flag byte. *)
  Alcotest.(check string) "wire bytes" "\x00\x00\x00\x06\x00hello"
    (Frame.encode "hello")

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Each reserved mode: [encode] refuses it with the flag byte in the
   message, while the decoder carries the frame through intact (the
   endpoint, not the framing, rejects reserved modes — see tcp.ml's
   drain_decoder). *)
let test_frame_reserved_flags () =
  List.iter
    (fun (mode, byte) ->
      (match Frame.encode ~mode "x" with
      | _ -> Alcotest.failf "flag 0x%02x: expected Unsupported_mode" byte
      | exception (Frame.Unsupported_mode m as e) ->
          Alcotest.(check bool) "mode carried" true (m = mode);
          Alcotest.(check bool)
            (Printf.sprintf "message names flag byte 0x%02x" byte)
            true
            (contains ~sub:(Printf.sprintf "0x%02x" byte)
               (Printexc.to_string e)));
      (* decode side: a hand-built frame with the reserved flag byte
         decodes to that mode with the body intact *)
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
      | Some (m, body) ->
          Alcotest.(check bool)
            (Printf.sprintf "flag 0x%02x decodes to its mode" byte)
            true (m = mode);
          Alcotest.(check string) "reserved body intact" "body" body
      | None -> Alcotest.failf "flag 0x%02x: frame not decoded" byte);
      Alcotest.(check int) "nothing pending" 0 (Frame.pending d);
      let m, body = Frame.decode_exact wire in
      Alcotest.(check bool) "decode_exact agrees" true (m = mode);
      Alcotest.(check string) "decode_exact body" "body" body)
    [ (Frame.Compressed, 1); (Frame.Signed, 2); (Frame.Encrypted, 3) ]

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
        | Some (Frame.Raw, b) ->
            got := b :: !got;
            drain ()
        | Some _ -> Alcotest.fail "unexpected mode"
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
    | Some (Frame.Raw, b) -> loop (b :: acc)
    | Some _ -> Alcotest.fail "unexpected mode"
    | None -> List.rev acc
  in
  loop []

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode identity" ~count:300 QCheck.string
    (fun s ->
      let m, body = Frame.decode_exact (Frame.encode s) in
      m = Frame.Raw && body = s)

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

(* Containers without a loopback interface skip rather than fail. *)
let with_tcp ~serving ~endpoints f =
  let sched = Sched.create () in
  match Tcp.create ~sched ~serving ~endpoints () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | t ->
      let tr = Tcp.transport t in
      Fun.protect ~finally:(fun () -> Transport.close tr) (fun () -> f sched tr)

(* Alternate draining the cooperative scheduler (handler fibers, the
   0-delay flush timer) with real socket I/O until [until] holds. *)
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

let test_tcp_coalesce () =
  with_tcp ~serving:[ 0; 1 ] ~endpoints:[ (0, ep 0); (1, ep 0) ]
    (fun sched tr ->
      let got = ref [] in
      Transport.set_handler tr 1 (fun ~src:_ ~kind ~payload ~off ~len ->
          got := (kind, String.sub payload off len) :: !got);
      Transport.post tr ~src:0 ~dst:1 ~kind:"a" "one";
      Transport.post tr ~src:0 ~dst:1 ~kind:"b" "two";
      Transport.post tr ~src:0 ~dst:1 ~kind:"a" "three";
      drive sched tr ~until:(fun () -> List.length !got = 3);
      Alcotest.(check (list (pair string string)))
        "in post order"
        [ ("a", "one"); ("b", "two"); ("a", "three") ]
        (List.rev !got);
      let s = Transport.stats tr in
      Alcotest.(check int) "one physical payload" 1 s.Transport.sent;
      Alcotest.(check int) "one frame" 1 s.Transport.frames;
      Alcotest.(check int) "three coalesced" 3 s.Transport.coalesced;
      Alcotest.(check int) "three delivered" 3 s.Transport.delivered)

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
      (* Around the payload, the body holds src, dst and count (a byte
         each), the kind "m" (2 bytes) and the payload's length (3). *)
      let fitting = (64 * 1024) - Frame.overhead - 3 - 2 - 3 in
      let sent =
        List.mapi
          (fun i n -> String.make n (Char.chr (Char.code 'a' + i)))
          [ 10; 100_000; 20; fitting; 30; 70_000; 40 ]
      in
      List.iter (Transport.send tr ~src:0 ~dst:1 ~kind:"m") sent;
      drive sched tr ~until:(fun () -> List.length !got = List.length sent);
      Alcotest.(check (list string)) "whole, in order" sent (List.rev !got))

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* A message queued towards a dead port survives connect failures and
   arrives once somebody starts listening there — exercising the capped
   backoff reconnect path end to end. *)
let test_tcp_reconnect () =
  match free_port () with
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
    | Some (_, body) ->
        let r = Wire.Reader.of_string body in
        let _src = Wire.Reader.uvarint r in
        let _dst = Wire.Reader.uvarint r in
        let count = Wire.Reader.uvarint r in
        let acc = ref acc in
        for _ = 1 to count do
          let _kind = Wire.Reader.string r in
          acc := Wire.Reader.string r :: !acc
        done;
        loop !acc
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
               Wire.Writer.uvarint w 1;
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

(* Closing with work still pending — unflushed posts, frames queued to
   an unreachable peer — must account the messages as dropped (and, for
   outboxes, return the pooled writers). *)
let test_tcp_close_drops_pending () =
  match free_port () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "skipping: loopback unavailable (%s)\n%!"
        (Unix.error_message e)
  | port ->
      with_tcp ~serving:[ 0 ] ~endpoints:[ (0, ep 0); (1, ep port) ]
        (fun _sched tr ->
          Transport.post tr ~src:0 ~dst:1 ~kind:"a" "unflushed";
          Transport.post tr ~src:0 ~dst:1 ~kind:"b" "also unflushed";
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
  match free_port () with
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
  Transport.set_burst tr ~src:0 ~dst:1 ~until:neg_infinity ();
  for _ = 1 to 5 do
    Transport.send tr ~src:0 ~dst:1 ~kind:"m" "x"
  done;
  ignore (Sched.run sched);
  Alcotest.(check int) "burst expired" 5 !got

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
          Alcotest.test_case "coalesced frame" `Quick test_tcp_coalesce;
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
        ] );
      ( "faulty",
        [
          Alcotest.test_case "send gate" `Quick test_faulty_send_gate;
          Alcotest.test_case "receive gate" `Quick test_faulty_receive_gate;
          Alcotest.test_case "partition and filter" `Quick
            test_faulty_partition_filter;
          Alcotest.test_case "burst windows" `Quick
            test_faulty_burst_deterministic;
          Alcotest.test_case "bare backend refuses faults" `Quick
            test_no_faults;
        ] );
    ]
