(* Durable-store properties: WAL record and image (record list) codec
   roundtrips, hostile bytes decoding to a typed error, and the tolerant
   log decoder (a truncated or corrupt tail decodes to a clean prefix
   plus a torn count, never an exception). *)

module Store = Netobj_store.Store
module Wal = Netobj_core.Wal
module Wirerep = Netobj_core.Wirerep
module Sched = Netobj_sched.Sched
module P = Netobj_pickle.Pickle
module Wire = Netobj_pickle.Wire

(* --- generators ----------------------------------------------------------- *)

let wr_gen =
  QCheck.Gen.(
    map2 (fun s i -> Wirerep.v ~space:s ~index:i) (int_bound 50)
      (int_bound 10_000))

let record_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun e c -> Wal.Epoch { epoch = e; cont = c }) nat nat;
      map2 (fun wr tag -> Wal.Export { wr; tag }) wr_gen string_small;
      map (fun wr -> Wal.Reclaim wr) wr_gen;
      map2
        (fun wr d -> Wal.Root { wr; delta = (if d then 1 else -1) })
        wr_gen bool;
      map3
        (fun parent child add -> Wal.Link { parent; child; add })
        wr_gen wr_gen bool;
      map2 (fun name wr -> Wal.Bind { name; wr }) string_small wr_gen;
      map (fun name -> Wal.Unbind name) string_small;
      map
        (fun (wr, client, seq, add) -> Wal.Dirty { wr; client; seq; add })
        (tup4 wr_gen (int_bound 50) nat bool);
      map (fun c -> Wal.Evict c) (int_bound 50);
      map (fun c -> Wal.Forget c) (int_bound 50);
      map2 (fun wr add -> Wal.Surrogate { wr; add }) wr_gen bool;
      map2 (fun wr n -> Wal.Seqno { wr; n }) wr_gen nat;
      map2 (fun msg wrs -> Wal.Pins { msg; wrs }) nat (small_list wr_gen);
      map (fun msg -> Wal.Unpins msg) nat;
      map2 (fun peer epoch -> Wal.Peer { peer; epoch }) (int_bound 50) nat;
      map3
        (fun next_index next_msg next_call ->
          Wal.Watermarks { next_index; next_msg; next_call })
        nat nat nat;
    ]

(* --- codec roundtrips ------------------------------------------------------ *)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"wal record roundtrip" ~count:1000
    (QCheck.make record_gen) (fun r ->
      let s = P.encode Wal.record_codec r in
      String.equal s (P.encode Wal.record_codec (P.decode Wal.record_codec s)))

(* A snapshot is a record list: every case, watermarks included, must
   survive the list codec. *)
let prop_image_roundtrip =
  let image = Wal.image_codec in
  QCheck.Test.make ~name:"wal image roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(small_list record_gen))
    (fun rs ->
      let b = P.encode image rs in
      String.equal b (P.encode image (P.decode image b)))

(* --- a hostile disk ----------------------------------------------------------

   Whatever bytes a log frame or a snapshot holds, decoding them must
   either succeed or raise [Wire.Error]: recovery skips (and counts) a
   record only on that exception.  Inputs are arbitrary strings and
   valid encodings with one byte overwritten. *)

let decodes_or_wire_error codec s =
  match P.decode codec s with
  | _ -> true
  | exception Wire.Error _ -> true

let hostile_gen encode gen =
  QCheck.Gen.(
    oneof
      [
        string;
        map3
          (fun v i c ->
            let b = Bytes.of_string (encode v) in
            if Bytes.length b > 0 then Bytes.set b (i mod Bytes.length b) c;
            Bytes.to_string b)
          gen nat char;
      ])

let prop_hostile_record =
  QCheck.Test.make ~name:"hostile wal record" ~count:2000
    (QCheck.make ~print:String.escaped
       (hostile_gen (P.encode Wal.record_codec) record_gen))
    (decodes_or_wire_error Wal.record_codec)

let prop_hostile_image =
  QCheck.Test.make ~name:"hostile snapshot image" ~count:1000
    (QCheck.make ~print:String.escaped
       (hostile_gen (P.encode Wal.image_codec) QCheck.Gen.(small_list record_gen)))
    (decodes_or_wire_error Wal.image_codec)

(* A whole frame whose record does not decode is skipped and counted;
   the records around it are kept in order. *)
let test_skipped_record () =
  let a = Wal.Unbind "a" and b = Wal.Evict 3 in
  let enc = P.encode Wal.record_codec in
  let records, skipped =
    Wal.decode_records [ enc a; "\xff\xff"; enc b; "" ]
  in
  Alcotest.(check int) "skipped" 2 skipped;
  Alcotest.(check (list string)) "kept in order"
    [ enc a; enc b ]
    (List.map enc records)

(* --- tolerant log decoding ------------------------------------------------- *)

let frames records = String.concat "" (List.map Store.frame records)

(* Truncating a well-formed log at any byte yields exactly the full
   frames before the cut, plus at most one torn record, and never
   raises. *)
let prop_truncated_tail =
  let gen =
    QCheck.Gen.(tup2 (small_list string_small) (int_bound 1_000))
  in
  QCheck.Test.make ~name:"truncated log decodes to clean prefix" ~count:500
    (QCheck.make gen) (fun (records, cut_seed) ->
      let log = frames records in
      let cut = if String.length log = 0 then 0 else cut_seed mod (String.length log + 1) in
      let decoded, torn = Store.decode_log (String.sub log 0 cut) in
      (* the decoded records are a prefix of the originals *)
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      is_prefix decoded records
      && torn <= 1
      && (cut < String.length log || (torn = 0 && decoded = records)))

(* Arbitrary garbage after a valid prefix is swallowed as torn records,
   never an exception. *)
let prop_garbage_tail =
  let gen = QCheck.Gen.(tup2 (small_list string_small) string_small) in
  QCheck.Test.make ~name:"garbage tail never raises" ~count:500
    (QCheck.make gen) (fun (records, junk) ->
      let decoded, _torn = Store.decode_log (frames records ^ junk) in
      List.length decoded >= 0)

(* --- store fault semantics -------------------------------------------------- *)

(* End-to-end through the store itself: unsynced appends vanish under
   [Lost_suffix], synced ones survive any fault, and a torn tail decodes
   cleanly. *)
let test_crash_faults () =
  let sched = Sched.create () in
  let st = Store.create ~sched ~fsync_delay:0.01 ~id:9 () in
  Store.append st "alpha";
  Store.append st "beta";
  Store.sync st;
  Store.append st "gamma";
  (* unsynced *)
  Store.set_fault st (Some Store.Lost_suffix);
  Store.crash st;
  let snap, records, torn = Store.recover st in
  Alcotest.(check (option string)) "no snapshot" None snap;
  Alcotest.(check (list string)) "synced prefix survives" [ "alpha"; "beta" ]
    records;
  Alcotest.(check int) "no torn records" 0 torn;
  (* torn tail: the unsynced record leaves a cut fragment behind *)
  Store.append st "delta";
  Store.sync st;
  Store.append st "epsilon";
  Store.set_fault st (Some Store.Torn_tail);
  Store.crash st;
  let _, records, torn = Store.recover st in
  Alcotest.(check (list string))
    "torn fragment dropped"
    [ "alpha"; "beta"; "delta" ]
    records;
  Alcotest.(check bool) "at most one torn" true (torn <= 1);
  (* after a torn recovery the runtime compacts (snapshot truncates the
     log, dropping the fragment); then the kindest disk keeps in-flight
     writes across a faultless crash *)
  Store.snapshot st "IMG";
  Store.append st "zeta";
  Store.crash st;
  let snap, records, torn = Store.recover st in
  Alcotest.(check (option string)) "compacted" (Some "IMG") snap;
  Alcotest.(check (list string)) "intact crash keeps cache" [ "zeta" ] records;
  Alcotest.(check int) "intact: nothing torn" 0 torn

let test_snapshot_truncates () =
  let sched = Sched.create () in
  let st = Store.create ~sched ~fsync_delay:0.01 ~id:3 () in
  Store.append st "old";
  Store.sync st;
  Store.snapshot st "IMAGE";
  Store.append st "new";
  Store.sync st;
  Store.crash st;
  let snap, records, torn = Store.recover st in
  Alcotest.(check (option string)) "snapshot" (Some "IMAGE") snap;
  Alcotest.(check (list string)) "log restarts after snapshot" [ "new" ]
    records;
  Alcotest.(check int) "clean" 0 torn;
  Store.wipe st;
  let snap, records, _ = Store.recover st in
  Alcotest.(check (option string)) "wiped snapshot" None snap;
  Alcotest.(check (list string)) "wiped log" [] records

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_record_roundtrip;
          QCheck_alcotest.to_alcotest prop_image_roundtrip;
          QCheck_alcotest.to_alcotest prop_hostile_record;
          QCheck_alcotest.to_alcotest prop_hostile_image;
          Alcotest.test_case "undecodable record skipped" `Quick
            test_skipped_record;
        ] );
      ( "decode",
        [
          QCheck_alcotest.to_alcotest prop_truncated_tail;
          QCheck_alcotest.to_alcotest prop_garbage_tail;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash faults" `Quick test_crash_faults;
          Alcotest.test_case "snapshot truncation" `Quick
            test_snapshot_truncates;
        ] );
    ]
