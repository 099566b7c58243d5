(* Tests for the marshalling hot path: writer pooling and in-place
   slice readers. *)

module Wire = Netobj_pickle.Wire
module P = Netobj_pickle.Pickle

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
  (* A large raw is kept by reference and never grows the buffer, so
     grow it past the pool's 64 KiB limit with small writes instead. *)
  let big = Wire.Writer.checkout () in
  for _ = 1 to 200 do
    Wire.Writer.raw big (String.make 500 'x')
  done;
  Wire.Writer.return big;
  let next = Wire.Writer.checkout () in
  Alcotest.(check bool) "oversized buffer not retained" true (not (next == big));
  List.iter Wire.Writer.return (next :: !drained)

(* A large string written by reference is held by the writer until
   [return], and by nothing after it. *)
let[@inline never] write_big w weak =
  let s = String.init 100_000 (fun i -> Char.chr (i land 0xff)) in
  Weak.set weak 0 (Some s);
  Wire.Writer.raw w s

let test_return_drops_references () =
  let weak = Weak.create 1 in
  let w = Wire.Writer.checkout () in
  write_big w weak;
  Gc.full_major ();
  Alcotest.(check bool) "held while the writer is out" true (Weak.check weak 0);
  Alcotest.(check int) "length counts it" 100_000 (Wire.Writer.length w);
  Wire.Writer.return w;
  Gc.full_major ();
  Alcotest.(check bool) "collectable after return" false (Weak.check weak 0)

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
          Alcotest.test_case "return drops references" `Quick
            test_return_drops_references;
        ] );
      ( "slices",
        [
          QCheck_alcotest.to_alcotest slice_roundtrip;
          QCheck_alcotest.to_alcotest slice_error_pos;
          Alcotest.test_case "slice bounds checked" `Quick
            test_slice_bounds_checked;
          Alcotest.test_case "decode_slice" `Quick test_decode_slice;
        ] );
    ]
