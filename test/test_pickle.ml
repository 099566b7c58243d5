(* Tests for the pickle combinators: primitive roundtrips, container and
   sum codecs, header/fingerprint checking, and malformed-input behaviour. *)

module P = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

let roundtrip codec v = P.decode codec (P.encode codec v)

let roundtrip_headered codec v = P.unpickle codec (P.pickle codec v)

let test_primitives () =
  Alcotest.(check unit) "unit" () (roundtrip P.unit ());
  Alcotest.(check bool) "bool t" true (roundtrip P.bool true);
  Alcotest.(check bool) "bool f" false (roundtrip P.bool false);
  Alcotest.(check char) "char" 'z' (roundtrip P.char 'z');
  List.iter
    (fun n -> Alcotest.(check int) "int" n (roundtrip P.int n))
    [ 0; 1; -1; 63; -64; 64; -65; 1 lsl 40; -(1 lsl 40); max_int; min_int + 1 ];
  Alcotest.(check int32) "int32" (-123456l) (roundtrip P.int32 (-123456l));
  Alcotest.(check int64) "int64" Int64.min_int (roundtrip P.int64 Int64.min_int);
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) "float" f (roundtrip P.float f))
    [ 0.0; -0.0; 1.5; -3.25; Float.max_float; Float.min_float; infinity ];
  Alcotest.(check string) "string" "héllo\x00world" (roundtrip P.string "héllo\x00world");
  Alcotest.(check bytes) "bytes" (Bytes.of_string "ab\xffc")
    (roundtrip P.bytes (Bytes.of_string "ab\xffc"))

let test_nan () =
  match roundtrip P.float Float.nan with
  | f when Float.is_nan f -> ()
  | f -> Alcotest.failf "nan roundtripped to %f" f

let test_containers () =
  Alcotest.(check (option int)) "some" (Some 5) (roundtrip (P.option P.int) (Some 5));
  Alcotest.(check (option int)) "none" None (roundtrip (P.option P.int) None);
  Alcotest.(check (list string))
    "list" [ "a"; "b"; "" ]
    (roundtrip (P.list P.string) [ "a"; "b"; "" ]);
  Alcotest.(check (array int))
    "array" [| 1; 2; 3 |]
    (roundtrip (P.array P.int) [| 1; 2; 3 |]);
  Alcotest.(check (pair int string))
    "pair" (7, "x")
    (roundtrip (P.pair P.int P.string) (7, "x"));
  let tr = P.triple P.int P.bool P.string in
  let x, y, z = roundtrip tr (1, true, "q") in
  Alcotest.(check (triple int bool string)) "triple" (1, true, "q") (x, y, z);
  (match roundtrip (P.result P.int P.string) (Ok 3) with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "result ok");
  match roundtrip (P.result P.int P.string) (Error "bad") with
  | Error "bad" -> ()
  | _ -> Alcotest.fail "result error"

type shape = Circle of float | Rect of float * float | Point

let shape_codec =
  P.sum "shape"
    [
      P.case 0 "circle" P.float
        (fun r -> Circle r)
        (function Circle r -> Some r | _ -> None);
      P.case 1 "rect" (P.pair P.float P.float)
        (fun (w, h) -> Rect (w, h))
        (function Rect (w, h) -> Some (w, h) | _ -> None);
      P.case 2 "point" P.unit
        (fun () -> Point)
        (function Point -> Some () | _ -> None);
    ]

let test_sum () =
  List.iter
    (fun s ->
      let s' = roundtrip shape_codec s in
      if s <> s' then Alcotest.fail "shape mismatch")
    [ Circle 1.5; Rect (2.0, 3.0); Point ]

let test_sum_duplicate_tags () =
  Alcotest.check_raises "duplicate tags rejected"
    (Invalid_argument "Pickle.sum dup: duplicate tags") (fun () ->
      ignore
        (P.sum "dup"
           [
             P.case 0 "a" P.unit (fun () -> Point) (fun _ -> Some ());
             P.case 0 "b" P.unit (fun () -> Point) (fun _ -> Some ());
           ]))

type tree = Leaf | Node of tree * int * tree

let tree_codec =
  P.fix (fun self ->
      P.sum "tree"
        [
          P.case 0 "leaf" P.unit
            (fun () -> Leaf)
            (function Leaf -> Some () | _ -> None);
          P.case 1 "node"
            (P.triple self P.int self)
            (fun (l, x, r) -> Node (l, x, r))
            (function Node (l, x, r) -> Some (l, x, r) | _ -> None);
        ])

let test_fix () =
  let t = Node (Node (Leaf, 1, Leaf), 2, Node (Leaf, 3, Node (Leaf, 4, Leaf))) in
  if roundtrip tree_codec t <> t then Alcotest.fail "tree mismatch"

let test_map () =
  (* An int-backed enum. *)
  let colour =
    P.map ~name:"colour"
      (function 0 -> `Red | 1 -> `Green | _ -> `Blue)
      (function `Red -> 0 | `Green -> 1 | `Blue -> 2)
      P.int
  in
  List.iter
    (fun c -> if roundtrip colour c <> c then Alcotest.fail "colour mismatch")
    [ `Red; `Green; `Blue ]

let expect_wire_error f =
  match f () with
  | exception Wire.Error _ -> ()
  | _ -> Alcotest.fail "expected Wire.Error"

let test_header () =
  let enc = P.pickle P.int 42 in
  Alcotest.(check int) "headered roundtrip" 42 (roundtrip_headered P.int 42);
  (* Wrong codec: fingerprint mismatch. *)
  expect_wire_error (fun () -> P.unpickle P.string enc);
  (* Corrupted magic. *)
  let bad = "XXXX" ^ String.sub enc 4 (String.length enc - 4) in
  expect_wire_error (fun () -> P.unpickle P.int bad)

let test_malformed () =
  expect_wire_error (fun () -> P.decode P.int "");
  expect_wire_error (fun () -> P.decode P.string "\x05ab");
  expect_wire_error (fun () -> P.decode P.bool "\x07");
  (* Trailing bytes rejected. *)
  expect_wire_error (fun () -> P.decode P.bool "\x01\x00");
  (* Unknown sum tag. *)
  expect_wire_error (fun () -> P.decode shape_codec "\x09")

(* An array pickle claiming 2^40 elements but holding one must fail on
   the count, not try to allocate 2^40 slots first. *)
let test_array_count_bounded () =
  let w = Wire.Writer.create () in
  Wire.Writer.uvarint w (1 lsl 40);
  Wire.Writer.varint w 7;
  let s = Bytes.to_string (Wire.Writer.to_bytes w) in
  Alcotest.(check int) "a 7-byte pickle" 7 (String.length s);
  expect_wire_error (fun () -> P.decode (P.array P.int) s);
  let big = Array.init 1000 (fun i -> i * 7919) in
  Alcotest.(check (array int)) "well-formed still round-trips" big
    (roundtrip (P.array P.int) big)

(* A list count beyond the bytes left fails before any element is read:
   a zero-width [unit] list claiming 2^20 elements (it would decode to a
   million units, and 2^40 would exhaust the heap), and an [int] list
   claiming more elements than it has bytes. *)
let test_list_count_bounded () =
  let claim n elts =
    let w = Wire.Writer.create () in
    Wire.Writer.uvarint w n;
    List.iter (Wire.Writer.varint w) elts;
    Bytes.to_string (Wire.Writer.to_bytes w)
  in
  expect_wire_error (fun () -> P.decode (P.list P.unit) (claim (1 lsl 20) []));
  let reads = ref 0 in
  let counted = P.map (fun x -> incr reads; x) Fun.id P.int in
  expect_wire_error (fun () -> P.decode (P.list counted) (claim 5 [ 1; 2; 3 ]));
  Alcotest.(check int) "no element read" 0 !reads;
  Alcotest.(check (list int)) "well-formed still round-trips" [ 1; 2; 3 ]
    (roundtrip (P.list P.int) [ 1; 2; 3 ])

(* A nine-group uvarint whose last group reaches bit 62 would decode as
   a negative count; containers must reject it as malformed, not crash
   in [List.init]. *)
let test_negative_count () =
  let neg = "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  expect_wire_error (fun () -> P.decode (P.list P.int) neg);
  expect_wire_error (fun () -> P.decode (P.array P.int) neg);
  let w = Wire.Writer.create () in
  Wire.Writer.uvarint w max_int;
  let r = Wire.Reader.of_string (Bytes.to_string (Wire.Writer.to_bytes w)) in
  Alcotest.(check int) "uvarint max_int" max_int (Wire.Reader.uvarint r)

let test_fingerprint_structural () =
  (* Structure determines the fingerprint, not identity. *)
  let a = P.pair P.int P.string and b = P.pair P.int P.string in
  Alcotest.(check int64) "same shape same fp" (P.fingerprint a) (P.fingerprint b);
  Alcotest.(check bool)
    "different shape different fp" true
    (P.fingerprint a <> P.fingerprint (P.pair P.string P.int))

let test_varint_compact () =
  (* Small ints should be 1 byte; this is what keeps wireReps small. *)
  Alcotest.(check int) "small int size" 1 (String.length (P.encode P.int 10));
  Alcotest.(check int) "small negative size" 1 (String.length (P.encode P.int (-5)));
  Alcotest.(check bool) "large int bigger" true
    (String.length (P.encode P.int (1 lsl 50)) > 4)

(* --- Rng-seeded randomized roundtrips --------------------------------------

   Complement the QCheck properties with structured generators the
   QCheck built-ins don't reach: deep recursive values, strings full of
   NULs and empties, extreme-int edges, and raw Wire op sequences. *)

module Rng = Netobj_util.Rng

let rec gen_tree rng depth =
  if depth = 0 || Rng.int rng 3 = 0 then Leaf
  else
    Node
      (gen_tree rng (depth - 1), Rng.int rng 1000 - 500, gen_tree rng (depth - 1))

let test_random_deep_trees () =
  let rng = Rng.create 0xfeedL in
  for _ = 1 to 200 do
    let t = gen_tree rng 10 in
    if roundtrip tree_codec t <> t then Alcotest.fail "random tree mismatch";
    if roundtrip_headered tree_codec t <> t then
      Alcotest.fail "random tree headered mismatch"
  done

let edge_ints =
  [| 0; 1; -1; 63; -64; 64; max_int; min_int + 1; 1 lsl 62; -(1 lsl 62) |]

let gen_edge_int rng = edge_ints.(Rng.int rng (Array.length edge_ints))

let gen_string rng =
  match Rng.int rng 5 with
  | 0 -> ""
  | 1 -> String.make (Rng.int rng 4) '\x00'
  | _ -> String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256))

let test_random_edges () =
  let rng = Rng.create 0xabcdL in
  let codec = P.list (P.pair P.int (P.option P.string)) in
  for _ = 1 to 300 do
    let n = gen_edge_int rng in
    if roundtrip P.int n <> n then Alcotest.failf "edge int %d" n;
    let s = gen_string rng in
    if roundtrip P.string s <> s then Alcotest.fail "random string";
    let v =
      List.init (Rng.int rng 8) (fun _ ->
          ( gen_edge_int rng,
            if Rng.bool rng then None else Some (gen_string rng) ))
    in
    if roundtrip codec v <> v then Alcotest.fail "edge list mismatch"
  done

(* Raw Wire sequences: write a random op list, read it back in order;
   every value must survive and the reader must land exactly at the end.
   Strings, raws and slices of 1 KiB or more are kept by reference in
   the writer, so they are drawn around that size too. *)
type wire_op =
  | Wbyte of int
  | Wuvarint of int
  | Wvarint of int
  | Wint32 of int32
  | Wint64 of int64
  | Wfloat of float
  | Wstring of string
  | Wraw of string
  | Wslice of Wire.slice

(* Around the writer's by-reference threshold (1 KiB), both sides. *)
let gen_big_string rng =
  let n =
    match Rng.int rng 4 with
    | 0 -> 1023
    | 1 -> 1024
    | _ -> 1000 + Rng.int rng 9000
  in
  String.init n (fun _ -> Char.chr (Rng.int rng 256))

let gen_wire_op rng =
  match Rng.int rng 11 with
  | 0 -> Wbyte (Rng.int rng 256)
  | 1 ->
      Wuvarint
        (if Rng.int rng 4 = 0 then max_int
         else Int64.to_int (Int64.shift_right_logical (Rng.next_int64 rng) 2))
  | 2 -> Wvarint (gen_edge_int rng)
  | 3 -> Wint32 (Int64.to_int32 (Rng.next_int64 rng))
  | 4 -> Wint64 (Rng.next_int64 rng)
  | 5 ->
      (* random bit patterns: exercises subnormals, infinities, nans *)
      Wfloat (Int64.float_of_bits (Rng.next_int64 rng))
  | 6 -> Wstring (gen_string rng)
  | 7 -> Wraw (gen_string rng)
  | 8 -> Wstring (gen_big_string rng)
  | 9 -> Wraw (gen_big_string rng)
  | _ ->
      let s = gen_big_string rng in
      let off = Rng.int rng 64 in
      Wslice (Wire.slice ~off ~len:(Rng.int rng (String.length s - off)) s)

let write_wire_op w = function
  | Wbyte b -> Wire.Writer.byte w b
  | Wuvarint n -> Wire.Writer.uvarint w n
  | Wvarint n -> Wire.Writer.varint w n
  | Wint32 n -> Wire.Writer.int32 w n
  | Wint64 n -> Wire.Writer.int64 w n
  | Wfloat f -> Wire.Writer.float w f
  | Wstring s -> Wire.Writer.string w s
  | Wraw s -> Wire.Writer.raw w s
  | Wslice sl -> Wire.Writer.slice w sl

(* The same ops encoded independently into a plain [Buffer]: the wire
   format written out by hand, with no reference or pooling logic. *)
let rec buffer_uvarint64 b n =
  if Int64.unsigned_compare n 0x80L < 0 then Buffer.add_uint8 b (Int64.to_int n)
  else begin
    Buffer.add_uint8 b (0x80 lor (Int64.to_int n land 0x7f));
    buffer_uvarint64 b (Int64.shift_right_logical n 7)
  end

let buffer_wire_op b = function
  | Wbyte n -> Buffer.add_uint8 b n
  | Wuvarint n -> buffer_uvarint64 b (Int64.of_int n)
  | Wvarint n ->
      let n = Int64.of_int n in
      buffer_uvarint64 b Int64.(logxor (shift_left n 1) (shift_right n 63))
  | Wint32 n -> Buffer.add_int32_le b n
  | Wint64 n -> Buffer.add_int64_le b n
  | Wfloat f -> Buffer.add_int64_le b (Int64.bits_of_float f)
  | Wstring s ->
      buffer_uvarint64 b (Int64.of_int (String.length s));
      Buffer.add_string b s
  | Wraw s -> Buffer.add_string b s
  | Wslice { base; off; len } -> Buffer.add_substring b base off len

let check_wire_op r = function
  | Wbyte b -> if Wire.Reader.byte r <> b then Alcotest.fail "byte"
  | Wuvarint n -> if Wire.Reader.uvarint r <> n then Alcotest.fail "uvarint"
  | Wvarint n -> if Wire.Reader.varint r <> n then Alcotest.fail "varint"
  | Wint32 n -> if Wire.Reader.int32 r <> n then Alcotest.fail "int32"
  | Wint64 n -> if Wire.Reader.int64 r <> n then Alcotest.fail "int64"
  | Wfloat f ->
      (* compare bit patterns: the wire format is IEEE-754 verbatim *)
      if Int64.bits_of_float (Wire.Reader.float r) <> Int64.bits_of_float f
      then Alcotest.fail "float bits"
  | Wstring s -> if Wire.Reader.string r <> s then Alcotest.fail "string"
  | Wraw s ->
      if Wire.Reader.raw r (String.length s) <> s then Alcotest.fail "raw"
  | Wslice { base; off; len } ->
      if Wire.Reader.raw r len <> String.sub base off len then
        Alcotest.fail "slice"

(* Every sequence goes through the one pooled writer, checked out and
   returned per sequence, and must produce the plain-[Buffer] bytes: a
   reference left over from an earlier sequence would show here. *)
let test_wire_op_sequences () =
  let rng = Rng.create 0x5eedL in
  for _ = 1 to 200 do
    let ops = List.init (1 + Rng.int rng 24) (fun _ -> gen_wire_op rng) in
    let bytes =
      Wire.Writer.with_pooled (fun w ->
          List.iter (write_wire_op w) ops;
          let b = Wire.Writer.to_bytes w in
          if Wire.Writer.length w <> Bytes.length b then
            Alcotest.fail "length disagrees with to_bytes";
          b)
    in
    let plain = Buffer.create 256 in
    List.iter (buffer_wire_op plain) ops;
    if Bytes.to_string bytes <> Buffer.contents plain then
      Alcotest.fail "pooled writer bytes differ from a plain Buffer's";
    let r = Wire.Reader.of_bytes bytes in
    List.iter (check_wire_op r) ops;
    if not (Wire.Reader.at_end r) then Alcotest.fail "reader not at end"
  done

let pickle_props =
  let open QCheck in
  [
    Test.make ~name:"int roundtrip" ~count:500 int (fun n ->
        roundtrip P.int n = n);
    Test.make ~name:"string roundtrip" ~count:200 string (fun s ->
        roundtrip P.string s = s);
    Test.make ~name:"int list roundtrip" ~count:200 (small_list int) (fun l ->
        roundtrip (P.list P.int) l = l);
    Test.make ~name:"nested option roundtrip" ~count:200
      (option (option (small_list int)))
      (fun v -> roundtrip (P.option (P.option (P.list P.int))) v = v);
    Test.make ~name:"float roundtrip" ~count:200 float (fun f ->
        let f' = roundtrip P.float f in
        f' = f || (Float.is_nan f && Float.is_nan f'));
    Test.make ~name:"headered roundtrip pair" ~count:200 (pair int string)
      (fun v -> roundtrip_headered (P.pair P.int P.string) v = v);
  ]

let () =
  Alcotest.run "pickle"
    [
      ( "codec",
        [
          Alcotest.test_case "primitives" `Quick test_primitives;
          Alcotest.test_case "nan" `Quick test_nan;
          Alcotest.test_case "containers" `Quick test_containers;
          Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "sum duplicate tags" `Quick
            test_sum_duplicate_tags;
          Alcotest.test_case "fix" `Quick test_fix;
          Alcotest.test_case "map" `Quick test_map;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "header" `Quick test_header;
          Alcotest.test_case "malformed" `Quick test_malformed;
          Alcotest.test_case "array count bounded" `Quick
            test_array_count_bounded;
          Alcotest.test_case "list count bounded" `Quick
            test_list_count_bounded;
          Alcotest.test_case "negative count" `Quick test_negative_count;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_structural;
          Alcotest.test_case "varint compact" `Quick test_varint_compact;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "deep random trees" `Quick test_random_deep_trees;
          Alcotest.test_case "edge values" `Quick test_random_edges;
          Alcotest.test_case "wire op sequences" `Quick test_wire_op_sequences;
        ] );
      ("props", List.map QCheck_alcotest.to_alcotest pickle_props);
    ]
