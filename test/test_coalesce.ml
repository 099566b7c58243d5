(* Tests for the hot-path marshalling/network overhaul: writer pooling,
   in-place slice readers, and per-destination message coalescing. *)

module Wire = Netobj_pickle.Wire
module P = Netobj_pickle.Pickle
module Sched = Netobj_sched.Sched
module Net = Netobj_net.Net
module Transport = Netobj_transport.Transport
module Faulty = Netobj_transport.Faulty
module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Metrics = Netobj_obs.Metrics
module Obs = Netobj_obs.Obs

(* --- writer pool ---------------------------------------------------------- *)

let test_pool_reuse () =
  let w1 = Wire.Writer.checkout () in
  Wire.Writer.string w1 "warm the buffer";
  Wire.Writer.return w1;
  let w2 = Wire.Writer.checkout () in
  Alcotest.(check bool) "checkout returns the pooled writer" true (w1 == w2);
  Alcotest.(check int) "cleared on return" 0 (Wire.Writer.length w2);
  Wire.Writer.return w2

let test_pool_stats () =
  (* Guarantee at least one resident writer, then measure a clean hit. *)
  let w = Wire.Writer.checkout () in
  Wire.Writer.return w;
  Wire.Writer.reset_pool_stats ();
  let w' = Wire.Writer.checkout () in
  Alcotest.(check (pair int int))
    "one hit, no miss" (1, 0)
    (Wire.Writer.pool_stats ());
  Wire.Writer.return w'

let test_with_pooled_returns_on_raise () =
  let seen = ref None in
  (try
     Wire.Writer.with_pooled (fun w ->
         seen := Some w;
         failwith "boom")
   with Failure _ -> ());
  let w = Wire.Writer.checkout () in
  Alcotest.(check bool)
    "writer back in pool after raise" true
    (match !seen with Some w' -> w' == w | None -> false);
  Wire.Writer.return w

let test_pool_drops_oversized () =
  (* Drain the pool so the checkout after [return big] is conclusive. *)
  let drained = ref [] in
  let rec drain () =
    Wire.Writer.reset_pool_stats ();
    let w = Wire.Writer.checkout () in
    drained := w :: !drained;
    let _, misses = Wire.Writer.pool_stats () in
    if misses = 0 then drain ()
  in
  drain ();
  let big = Wire.Writer.checkout () in
  Wire.Writer.raw big (String.make 100_000 'x');
  Wire.Writer.return big;
  let next = Wire.Writer.checkout () in
  Alcotest.(check bool) "oversized buffer not retained" true (not (next == big));
  List.iter Wire.Writer.return (next :: !drained)

(* --- slice readers -------------------------------------------------------- *)

let encode_ints l =
  Wire.Writer.with_pooled (fun w ->
      List.iter (Wire.Writer.varint w) l;
      Bytes.unsafe_to_string (Wire.Writer.to_bytes w))

let slice_roundtrip =
  QCheck.Test.make ~name:"slice roundtrip at random offsets" ~count:300
    QCheck.(triple (small_list int) small_string small_string)
    (fun (l, prefix, suffix) ->
      let body = encode_ints l in
      let payload = prefix ^ body ^ suffix in
      let r =
        Wire.Reader.of_string ~off:(String.length prefix)
          ~len:(String.length body) payload
      in
      let l' = List.map (fun _ -> Wire.Reader.varint r) l in
      l' = l && Wire.Reader.at_end r
      && Wire.Reader.pos r = String.length body)

(* Decoding a truncated slice fails with the same (slice-relative)
   position the same bytes produce as a standalone string: [Error]
   positions do not leak the slice's base offset. *)
let slice_error_pos =
  QCheck.Test.make ~name:"truncated slice error is slice-relative" ~count:300
    QCheck.(pair small_string small_string)
    (fun (prefix, s) ->
      let body =
        Wire.Writer.with_pooled (fun w ->
            Wire.Writer.string w s;
            Bytes.unsafe_to_string (Wire.Writer.to_bytes w))
      in
      let cut = String.length body - 1 in
      let read_str r = ignore (Wire.Reader.string r) in
      let direct =
        try
          read_str (Wire.Reader.of_string (String.sub body 0 cut));
          None
        with Wire.Error { pos; _ } -> Some pos
      in
      let sliced =
        try
          read_str
            (Wire.Reader.of_string ~off:(String.length prefix) ~len:cut
               (prefix ^ body ^ "junk-trailer"));
          None
        with Wire.Error { pos; _ } -> Some pos
      in
      direct <> None && direct = sliced
      && match direct with Some p -> p >= 0 && p <= cut | None -> false)

let test_slice_bounds_checked () =
  let bad off len s =
    match Wire.Reader.of_string ~off ~len s with
    | _ -> Alcotest.failf "slice %d,%d of %S accepted" off len s
    | exception Invalid_argument _ -> ()
  in
  bad 3 2 "abcd";
  bad (-1) 2 "abcd";
  bad 0 5 "abcd";
  bad 2 (-1) "abcd"

let test_decode_slice () =
  let body = P.encode (P.list P.int) [ 1; 2; 3000 ] in
  let payload = "hdr" ^ body ^ "tail" in
  Alcotest.(check (list int))
    "decode_slice reads in place" [ 1; 2; 3000 ]
    (P.decode_slice (P.list P.int) payload ~off:3 ~len:(String.length body))

(* --- coalescing: net level ------------------------------------------------ *)

let test_post_coalesces_and_keeps_fifo () =
  let s = Sched.create () in
  let net = Net.create ~sched:s ~seed:1L () in
  Net.set_all_edges net (Net.fifo_edge ());
  let received = ref [] in
  Net.set_handler net 1 (fun ~src:_ ~kind:_ ~payload ~off ~len ->
      received := String.sub payload off len :: !received);
  Net.set_handler net 2 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ -> ());
  for i = 1 to 20 do
    Net.post net ~src:0 ~dst:1 ~kind:"seq" (string_of_int i)
  done;
  (* a second destination never shares a frame with the first *)
  Net.post net ~src:0 ~dst:2 ~kind:"seq" "x";
  ignore (Sched.run s);
  Alcotest.(check (list string))
    "fifo order preserved"
    (List.init 20 (fun i -> string_of_int (20 - i)))
    !received;
  let st = Net.stats net in
  Alcotest.(check int) "one frame per edge" 2 st.Net.frames;
  Alcotest.(check int) "physical sends = frames" 2 st.Net.sent;
  Alcotest.(check int) "21 logical messages coalesced" 21 st.Net.coalesced;
  Alcotest.(check int) "21 logical deliveries" 21 st.Net.delivered;
  (* logical per-kind accounting sees through the frames *)
  Alcotest.(check (list (pair string (pair int int))))
    "by-kind counts logical messages"
    [ ("seq", (21, 32)) ]
    (Net.stats_by_kind net)

(* Regression: a coalesced frame lost in flight is [count] logical drop
   events.  The stats always counted per constituent; the [net.dropped]
   metric used to advance by 1 per frame. *)
let test_frame_drop_counts_constituents () =
  Metrics.reset Metrics.global;
  Obs.enable ~capacity:4096 ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let s = Sched.create () in
      let net = Net.create ~sched:s ~seed:1L () in
      Net.set_all_edges net (Net.fifo_edge ());
      let tr = Faulty.of_net ~sched:s net in
      Transport.set_handler tr 1
        (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
          Alcotest.fail "nothing must be delivered");
      for i = 1 to 5 do
        Transport.post tr ~src:0 ~dst:1 ~kind:"seq" (string_of_int i)
      done;
      (* Crash the destination after the frame is in flight (flush fires
         at the 0-delay timer; delivery happens one latency later). *)
      Sched.timer s 0.001 (fun () -> Transport.crash tr 1);
      ignore (Sched.run s);
      let st = Transport.stats tr in
      Alcotest.(check int) "stats: all five dropped" 5 st.Transport.dropped;
      Alcotest.(check int) "stats: attributed to dst crash" 5
        st.Transport.dropped_dst_crashed;
      Alcotest.(check int) "metric matches stats" 5
        (Metrics.counter_value (Metrics.counter Metrics.global "net.dropped")))

let test_post_across_instants_two_frames () =
  let s = Sched.create () in
  let net = Net.create ~sched:s ~seed:1L () in
  Net.set_all_edges net (Net.fifo_edge ());
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ ~kind:_ ~payload:_ ~off:_ ~len:_ ->
      incr got);
  Net.post net ~src:0 ~dst:1 ~kind:"a" "1";
  Sched.timer s 1.0 (fun () -> Net.post net ~src:0 ~dst:1 ~kind:"a" "2");
  ignore (Sched.run s);
  Alcotest.(check int) "both delivered" 2 !got;
  Alcotest.(check int) "separate instants, separate frames" 2
    (Net.stats net).Net.frames

(* --- coalescing: runtime parity ------------------------------------------- *)

let m_incr = Stub.declare "incr" P.int P.int

let counter_obj sp =
  let v = ref 0 in
  R.allocate sp
    ~meths:
      [
        Stub.implement m_incr (fun _ n ->
            v := !v + n;
            !v);
      ]

(* Two clients import, call and release a handful of objects, then a
   global collect retires everything.  Deterministic under a Fifo edge
   (constant latency, no loss/dup, no RNG draws), so the coalesced and
   uncoalesced runs at the same seed must agree on all logical protocol
   state — only the physical message count may differ. *)
let run_workload ~coalesce =
  Metrics.reset Metrics.global;
  Obs.enable ~capacity:65536 ();
  let cfg = R.config ~seed:43L ~edge:(Net.fifo_edge ()) ~coalesce ~nspaces:3 () in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let objs = List.init 6 (fun i -> (i, counter_obj owner)) in
  List.iter (fun (i, o) -> R.publish owner (Printf.sprintf "o%d" i) o) objs;
  for c = 1 to 2 do
    R.spawn rt (fun () ->
        let sp = R.space rt c in
        List.iter
          (fun (i, _) ->
            let h = R.lookup sp ~at:0 (Printf.sprintf "o%d" i) in
            ignore (Stub.call sp h m_incr 1);
            R.release sp h)
          objs)
  done;
  ignore (R.run rt);
  (match Sched.failures (R.sched rt) with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e));
  R.collect_all rt;
  ignore (R.run rt);
  let st = Net.stats (R.net rt) in
  let kinds = Net.stats_by_kind (R.net rt) in
  let gc = R.gc_stats (R.space rt 1) in
  let obs_sent_kind k =
    Metrics.counter_value (Metrics.counter Metrics.global ("net.sent." ^ k))
  in
  let obs_counts =
    List.map (fun k -> (k, obs_sent_kind k)) [ "dirty"; "clean"; "call" ]
  in
  Obs.disable ();
  let drained = List.for_all (fun (_, o) -> R.dirty_set owner o = []) objs in
  (st, kinds, gc, obs_counts, drained)

let test_coalesce_parity () =
  let st_off, kinds_off, gc_off, obs_off, drained_off =
    run_workload ~coalesce:false
  in
  let st_on, kinds_on, gc_on, obs_on, drained_on =
    run_workload ~coalesce:true
  in
  Alcotest.(check bool) "uncoalesced run drains" true drained_off;
  Alcotest.(check bool) "coalesced run drains" true drained_on;
  Alcotest.(check bool) "gc_stats identical" true (gc_off = gc_on);
  Alcotest.(check bool)
    "per-kind logical accounting identical" true (kinds_off = kinds_on);
  Alcotest.(check (list (pair string int)))
    "Obs per-kind sent counters identical" obs_off obs_on;
  Alcotest.(check int) "same logical deliveries" st_off.Net.delivered
    st_on.Net.delivered;
  Alcotest.(check int) "same logical drops" st_off.Net.dropped
    st_on.Net.dropped;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer physical messages (%d < %d)"
       st_on.Net.sent st_off.Net.sent)
    true
    (st_on.Net.sent < st_off.Net.sent);
  Alcotest.(check bool)
    (Printf.sprintf "packing ratio above 1 (%d msgs in %d frames)"
       st_on.Net.coalesced st_on.Net.frames)
    true
    (st_on.Net.coalesced > st_on.Net.frames)

let () =
  Alcotest.run "coalesce"
    [
      ( "pool",
        [
          Alcotest.test_case "checkout reuses returned writer" `Quick
            test_pool_reuse;
          Alcotest.test_case "pool stats" `Quick test_pool_stats;
          Alcotest.test_case "with_pooled returns on raise" `Quick
            test_with_pooled_returns_on_raise;
          Alcotest.test_case "oversized buffers dropped" `Quick
            test_pool_drops_oversized;
        ] );
      ( "slices",
        [
          QCheck_alcotest.to_alcotest slice_roundtrip;
          QCheck_alcotest.to_alcotest slice_error_pos;
          Alcotest.test_case "slice bounds checked" `Quick
            test_slice_bounds_checked;
          Alcotest.test_case "decode_slice" `Quick test_decode_slice;
        ] );
      ( "coalescer",
        [
          Alcotest.test_case "post coalesces, fifo kept" `Quick
            test_post_coalesces_and_keeps_fifo;
          Alcotest.test_case "instants separate frames" `Quick
            test_post_across_instants_two_frames;
          Alcotest.test_case "frame drop counts constituents" `Quick
            test_frame_drop_counts_constituents;
          Alcotest.test_case "runtime parity on vs off" `Quick
            test_coalesce_parity;
        ] );
    ]
