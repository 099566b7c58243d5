(* Tests for the runtime wire protocol: envelope codec roundtrips
   (hand-picked and property-based) and wireRep utilities. *)

module Proto = Netobj_core.Proto
module Wirerep = Netobj_core.Wirerep
module P = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

let roundtrip env = P.decode Proto.codec (P.encode Proto.codec env)

let check_env msg env =
  let env' = roundtrip env in
  if
    String.length (P.encode Proto.codec env)
    <> String.length (P.encode Proto.codec env')
    || Fmt.str "%a" Proto.pp env <> Fmt.str "%a" Proto.pp env'
  then Alcotest.failf "%s: envelope mangled" msg

let wr = Wirerep.v ~space:3 ~index:17

let wr2 = Wirerep.v ~space:3 ~index:18

let mid : Proto.msg_id = { origin = 2; seq = 99 }

let verdicts =
  Proto.[ V_no_object; V_no_method; V_shed; V_raised "boom" ]

let test_envelopes () =
  check_env "call"
    (Proto.Call
       { call_id = 7; msg_id = mid; needs_ack = true; target = wr; meth = "incr"; args = Wire.slice "\x00\xffpayload"; deadline = 0. });
  check_env "call with deadline"
    (Proto.Call
       { call_id = 8; msg_id = mid; needs_ack = false; target = wr; meth = "incr"; args = Wire.slice ""; deadline = 0.25 });
  check_env "reply ok"
    (Proto.Reply { call_id = 7; msg_id = mid; needs_ack = true; result = Ok (Wire.slice "result-bytes") });
  List.iter
    (fun v ->
      let env = Proto.Reply { call_id = 7; msg_id = mid; needs_ack = false; result = Error v } in
      check_env (Fmt.str "%a" Proto.pp env) env)
    verdicts;
  check_env "copy_ack" (Proto.Copy_ack { msg_id = mid });
  check_env "dirty" (Proto.Dirty { items = [ (wr, 12) ] });
  check_env "dirty batch" (Proto.Dirty { items = [ (wr, 12); (wr2, 1) ] });
  check_env "dirty_ack" (Proto.Dirty_ack { items = [ (wr, false) ] });
  check_env "dirty_ack batch"
    (Proto.Dirty_ack { items = [ (wr, false); (wr2, true) ] });
  check_env "clean" (Proto.Clean { items = [ (wr, 13) ] });
  check_env "clean batch" (Proto.Clean { items = [ (wr, 13); (wr2, 2) ] });
  check_env "clean_ack" (Proto.Clean_ack { wrs = [ wr ] });
  check_env "clean_ack batch" (Proto.Clean_ack { wrs = [ wr; wr2 ] });
  check_env "ping" (Proto.Ping { nonce = 5 });
  check_env "ping_ack" (Proto.Ping_ack { nonce = 5 });
  check_env "cancel" (Proto.Cancel { call_id = 7; msg_id = mid })

(* The Ok arm is the hot path's reply: its bytes are pinned, so a change
   to the error arm cannot move it. *)
let test_reply_ok_bytes () =
  Alcotest.(check string) "reply ok bytes" "\001\014\004\198\001\001\000\002ab"
    (P.encode Proto.codec
       (Proto.Reply { call_id = 7; msg_id = mid; needs_ack = true; result = Ok (Wire.slice "ab") }))

(* Args are a slice: an interior slice of a larger string, past the
   writer's 1 KiB by-reference threshold, encodes exactly as a call
   carrying the copied bytes, and decodes back to a slice of the
   encoded packet holding those bytes. *)
let test_args_slice_bytes () =
  let big = String.init 5000 (fun i -> Char.chr (i land 0xff)) in
  let call args =
    Proto.Call
      { call_id = 7; msg_id = mid; needs_ack = false; target = wr; meth = "m"; args; deadline = 0. }
  in
  let sliced = P.encode Proto.codec (call (Wire.slice ~off:100 ~len:3000 big)) in
  Alcotest.(check string) "same bytes"
    (P.encode Proto.codec (call (Wire.slice (String.sub big 100 3000))))
    sliced;
  match P.decode Proto.codec sliced with
  | Proto.Call { args = { base; off; len }; _ } ->
      Alcotest.(check bool) "a view of the packet" true (base == sliced);
      Alcotest.(check string) "its bytes" (String.sub big 100 3000)
        (String.sub base off len)
  | env -> Alcotest.failf "decoded as %a" Proto.pp env

(* The verdict is the last thing a Reply's error arm holds: the retired
   tag 3 and any tag past the known ones must be a [Wire.Error], not a
   verdict. *)
let test_unknown_verdict () =
  let s =
    P.encode Proto.codec
      (Proto.Reply { call_id = 7; msg_id = mid; needs_ack = false; result = Error Proto.V_no_object })
  in
  let n = String.length s in
  for tag = 3 to 127 do
    if tag <> 4 then begin
      let b = Bytes.of_string s in
      Bytes.set b (n - 1) (Char.chr tag);
      match P.decode Proto.codec (Bytes.to_string b) with
      | env -> Alcotest.failf "tag %d decoded as %a" tag Proto.pp env
      | exception Wire.Error _ -> ()
    end
  done

(* Tags 9 and 10 carried a separate clean batch and its ack; both are
   retired, and an envelope with either tag is a [Wire.Error]. *)
let test_retired_clean_batch_tags () =
  List.iter
    (fun tag ->
      let b = Bytes.of_string (P.encode Proto.codec (Proto.Clean { items = [] })) in
      Bytes.set b 0 (Char.chr tag);
      match P.decode Proto.codec (Bytes.to_string b) with
      | env -> Alcotest.failf "tag %d decoded as %a" tag Proto.pp env
      | exception Wire.Error _ -> ())
    [ 9; 10 ]

let test_kinds_distinct () =
  let envs =
    [
      Proto.Call { call_id = 0; msg_id = mid; needs_ack = false; target = wr; meth = "m"; args = Wire.slice ""; deadline = 0. };
      Proto.Reply { call_id = 0; msg_id = mid; needs_ack = false; result = Ok (Wire.slice "") };
      Proto.Copy_ack { msg_id = mid };
      Proto.Dirty { items = [ (wr, 0) ] };
      Proto.Dirty_ack { items = [ (wr, true) ] };
      Proto.Clean { items = [ (wr, 0) ] };
      Proto.Clean_ack { wrs = [ wr ] };
      Proto.Ping { nonce = 0 };
      Proto.Ping_ack { nonce = 0 };
      Proto.Cancel { call_id = 0; msg_id = mid };
    ]
  in
  let kinds = List.map Proto.kind envs in
  Alcotest.(check int)
    "kinds unique" (List.length kinds)
    (List.length (List.sort_uniq String.compare kinds))

let env_gen =
  let open QCheck.Gen in
  let wr_gen =
    map2 (fun s i -> Wirerep.v ~space:s ~index:i) (int_bound 100) (int_bound 10000)
  in
  let mid_gen =
    map2 (fun o s : Proto.msg_id -> { origin = o; seq = s }) (int_bound 50) nat
  in
  oneof
    [
      map
        (fun (c, m, w, (n, a)) ->
          Proto.Call
            {
              call_id = c;
              msg_id = m;
              needs_ack = c mod 2 = 0;
              target = w;
              meth = n;
              args = Wire.slice a;
              deadline = (if c mod 3 = 0 then 0. else float_of_int (c mod 7) /. 4.);
            })
        (tup4 nat mid_gen wr_gen (tup2 string_small string_small));
      map
        (fun (c, m) -> Proto.Cancel { call_id = c; msg_id = m })
        (tup2 nat mid_gen);
      map
        (fun (c, m, r) ->
          Proto.Reply
            { call_id = c; msg_id = m; needs_ack = c mod 2 = 1; result = r })
        (tup3 nat mid_gen
           (oneof
              [
                map (fun s -> Ok (Wire.slice s)) string_small;
                map (fun s -> Error (Proto.V_raised s)) string_small;
                map (fun v -> Error v) (oneofl verdicts);
              ]));
      map (fun m -> Proto.Copy_ack { msg_id = m }) mid_gen;
      map
        (fun items -> Proto.Dirty { items })
        (list_size (int_bound 20) (tup2 wr_gen nat));
      map
        (fun items -> Proto.Dirty_ack { items })
        (list_size (int_bound 20) (tup2 wr_gen bool));
      map
        (fun items -> Proto.Clean { items })
        (list_size (int_bound 20) (tup2 wr_gen nat));
      map
        (fun wrs -> Proto.Clean_ack { wrs })
        (list_size (int_bound 20) wr_gen);
      map (fun n -> Proto.Ping { nonce = n }) nat;
      map (fun n -> Proto.Ping_ack { nonce = n }) nat;
      map (fun n -> Proto.Recover { nonce = n }) nat;
      map
        (fun items -> Proto.Reassert { items })
        (small_list (tup2 wr_gen nat));
      map2
        (fun ok gone -> Proto.Reassert_ack { ok; gone })
        (small_list wr_gen) (small_list wr_gen);
      map3
        (fun probe_id confirm targets ->
          Proto.Cycle_probe { probe_id; confirm; targets })
        nat bool (small_list wr_gen);
      map3
        (fun probe_id epoch reports ->
          Proto.Cycle_reply { probe_id; epoch; reports })
        nat nat
        (small_list
           (tup2 wr_gen
              (oneof
                 [
                   return Proto.Cr_live;
                   return Proto.Cr_gone;
                   map3
                     (fun touch dirty ancestors ->
                       Proto.Cr_quiet { touch; dirty; ancestors })
                     nat (small_list nat) (small_list wr_gen);
                 ])));
      map (fun wrs -> Proto.Cycle_commit { wrs }) (small_list wr_gen);
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"envelope roundtrip" ~count:500
    (QCheck.make env_gen) (fun env ->
      let s = P.encode Proto.codec env in
      let env' = P.decode Proto.codec s in
      String.equal s (P.encode Proto.codec env'))

(* --- hostile wire ----------------------------------------------------------

   A packet from the network is untrusted: whatever its bytes, decoding
   must either succeed or raise [Wire.Error] — the one exception the
   runtime's receive handler catches.  Each case encodes a packet around
   an envelope of any constructor, applies a few random mutations
   (truncation, byte overwrite, insertion), and also splices at every
   offset a nine-group uvarint that would decode as a negative count. *)

let negative_count = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

type mutation = Truncate of int | Overwrite of int * char | Insert of int * string

let splice s i x =
  String.sub s 0 i ^ x ^ String.sub s i (String.length s - i)

let mutate s = function
  | Truncate i -> String.sub s 0 (i mod (String.length s + 1))
  | Overwrite (_, _) when s = "" -> s
  | Overwrite (i, c) ->
      let b = Bytes.of_string s in
      Bytes.set b (i mod Bytes.length b) c;
      Bytes.to_string b
  | Insert (i, x) -> splice s (i mod (String.length s + 1)) x

let mutation_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun i -> Truncate i) nat);
      (3, map2 (fun i c -> Overwrite (i, c)) nat char);
      (1, map2 (fun i x -> Insert (i, x)) nat (string_size (int_range 1 4)));
      (1, map (fun i -> Insert (i, negative_count)) nat);
    ]

let packet_gen =
  let open QCheck.Gen in
  map3
    (fun (src_epoch, src_cont, dst_epoch) env muts ->
      let p = { Proto.src_epoch; src_cont; dst_epoch; env } in
      (P.encode Proto.packet_codec p, muts))
    (triple small_nat small_nat small_nat)
    env_gen
    (list_size (int_range 1 3) mutation_gen)

let decodes_or_wire_error s =
  match P.decode Proto.packet_codec s with
  | _ -> true
  | exception Wire.Error _ -> true

let prop_hostile_packets =
  QCheck.Test.make ~name:"hostile packets"
    ~count:1000
    (QCheck.make ~print:(fun (s, _) -> String.escaped s) packet_gen)
    (fun (s, muts) ->
      decodes_or_wire_error (List.fold_left mutate s muts)
      && List.for_all
           (fun i -> decodes_or_wire_error (splice s i negative_count))
           (List.init (String.length s + 1) Fun.id))

let test_wirerep () =
  let a = Wirerep.v ~space:1 ~index:2 in
  let b = Wirerep.v ~space:1 ~index:2 in
  let c = Wirerep.v ~space:2 ~index:1 in
  Alcotest.(check bool) "equal" true (Wirerep.equal a b);
  Alcotest.(check bool) "not equal" false (Wirerep.equal a c);
  Alcotest.(check int) "compare refl" 0 (Wirerep.compare a b);
  Alcotest.(check bool) "hash consistent" true (Wirerep.hash a = Wirerep.hash b);
  let s = P.encode Wirerep.codec a in
  Alcotest.(check bool) "codec roundtrip" true
    (Wirerep.equal a (P.decode Wirerep.codec s));
  (* Map/Set/Tbl sanity *)
  let m = Wirerep.Map.(add a 1 (add c 2 empty)) in
  Alcotest.(check (option int)) "map" (Some 1) (Wirerep.Map.find_opt b m);
  let tbl = Wirerep.Tbl.create 4 in
  Wirerep.Tbl.replace tbl a "x";
  Alcotest.(check (option string)) "tbl" (Some "x") (Wirerep.Tbl.find_opt tbl b)

let () =
  Alcotest.run "proto"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrips" `Quick test_envelopes;
          Alcotest.test_case "kinds distinct" `Quick test_kinds_distinct;
          Alcotest.test_case "reply ok bytes" `Quick test_reply_ok_bytes;
          Alcotest.test_case "args slice bytes" `Quick test_args_slice_bytes;
          Alcotest.test_case "unknown verdict tag" `Quick test_unknown_verdict;
          Alcotest.test_case "retired clean batch tags" `Quick
            test_retired_clean_batch_tags;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_hostile_packets;
        ] );
      ("wirerep", [ Alcotest.test_case "basics" `Quick test_wirerep ]);
    ]
