(* Tests for the observability layer: the trace ring buffer and its
   exporters, the metrics registry, and the determinism oracle — two
   same-seed runtime executions must export byte-identical traces. *)

module Obs = Netobj_obs.Obs
module Trace = Netobj_obs.Trace
module Metrics = Netobj_obs.Metrics
module Json = Netobj_obs.Json
module R = Netobj_core.Runtime
module Scenario = Netobj_chaos.Scenario
module Stub = Netobj_core.Stub
module P = Netobj_pickle.Pickle

(* --- ring buffer ---------------------------------------------------------- *)

let test_ring_wraparound () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.instant t ~cat:"test" ~space:0 (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "length capped" 4 (Trace.length t);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped t);
  Alcotest.(check (list string))
    "oldest evicted first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun e -> e.Trace.name) (Trace.events t));
  Trace.clear t;
  Alcotest.(check int) "clear empties" 0 (Trace.length t)

let test_default_clock_monotone () =
  let t = Trace.create ~capacity:16 () in
  Trace.instant t ~cat:"c" ~space:0 "a";
  Trace.instant t ~cat:"c" ~space:0 "b";
  Trace.instant t ~cat:"c" ~space:0 "c";
  match Trace.events t with
  | [ a; b; c ] ->
      Alcotest.(check bool)
        "seq clock strictly increasing" true
        (a.Trace.ts < b.Trace.ts && b.Trace.ts < c.Trace.ts)
  | _ -> Alcotest.fail "expected 3 events"

let test_span_nesting () =
  let t = Trace.create ~capacity:64 () in
  Trace.span_begin t ~cat:"gc" ~space:1 "outer";
  Trace.span_begin t ~cat:"gc" ~space:1 "inner";
  Trace.span_end t ~cat:"gc" ~space:1 "inner";
  Trace.span_end t ~cat:"gc" ~space:1 "outer";
  let phases = List.map (fun e -> e.Trace.phase) (Trace.events t) in
  Alcotest.(check bool)
    "B B E E" true
    (phases = Trace.[ Begin; Begin; End; End ]);
  (* Async spans carry their correlation id through export. *)
  Trace.async_begin t ~cat:"net" ~space:0 ~id:42 "flight";
  Trace.async_end t ~cat:"net" ~space:2 ~id:42 "flight";
  let evs = Trace.events t in
  let flight = List.filter (fun e -> e.Trace.name = "flight") evs in
  Alcotest.(check (list int)) "ids preserved" [ 42; 42 ]
    (List.map (fun e -> e.Trace.id) flight)

(* --- text exporter -------------------------------------------------------- *)

let test_to_text () =
  let t = Trace.create ~capacity:8 () in
  Trace.instant t ~cat:"net" ~space:3
    ~args:[ ("kind", Trace.S "dirty"); ("bytes", Trace.I 17) ]
    "drop";
  let line = Trace.to_text t in
  let contains needle =
    let nl = String.length needle and ll = String.length line in
    let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "text contains %S" needle)
        true (contains needle))
    [ "I net"; "s3 drop"; "kind=dirty"; "bytes=17" ]

(* --- histogram bucketing --------------------------------------------------- *)

let test_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  (* bucket 0: v < 1; bucket k: [2^(k-1), 2^k) *)
  List.iter (Metrics.observe h) [ 0.0; 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 1000.0 ];
  Alcotest.(check int) "count" 8 (Metrics.hist_count h);
  (* 0.0,0.5 -> b0; 1.0,1.5 -> b1 [1,2); 2.0,3.9 -> b2 [2,4);
     4.0 -> b3 [4,8); 1000.0 -> b10 [512,1024) *)
  Alcotest.(check (list (pair int int)))
    "bucket placement"
    [ (0, 2); (1, 2); (2, 2); (3, 1); (10, 1) ]
    (Metrics.hist_buckets h);
  Alcotest.(check bool)
    "median bound sane" true
    (Metrics.quantile h 0.5 >= 1.0 && Metrics.quantile h 0.5 <= 4.0);
  Alcotest.(check bool) "p100 covers max" true (Metrics.quantile h 1.0 >= 1000.0)

let test_histogram_buckets_exact () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "b" in
  List.iter (Metrics.observe h) [ 0.25; 1.0; 2.0; 4.0; 8.0 ];
  Alcotest.(check (list (pair int int)))
    "log2 buckets"
    [ (0, 1); (1, 1); (2, 1); (3, 1); (4, 1) ]
    (Metrics.hist_buckets h)

let test_counters_and_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x" in
  let g = Metrics.gauge m "y" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set_gauge g 2.5;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value g);
  Metrics.reset m;
  Alcotest.(check int) "counter zeroed, handle valid" 0
    (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "handle still works" 1 (Metrics.counter_value c);
  (* Same name, same instrument; wrong kind rejected. *)
  Alcotest.(check bool)
    "re-registration returns same" true
    (Metrics.counter_value (Metrics.counter m "x") = 1);
  match Metrics.gauge m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch not rejected"

(* --- a minimal JSON parser to validate the Chrome export ------------------- *)

(* Enough of a JSON reader to check well-formedness and pull out the
   traceEvents array: objects, arrays, strings (with escapes), numbers,
   true/false/null. *)
module Jparse = struct
  type v =
    | O of (string * v) list
    | A of v list
    | S of string
    | N of float
    | B of bool
    | Null

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
    let next () =
      let c = peek () in
      incr pos;
      c
    in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip_ws ()
        | _ -> ()
    in
    let expect c =
      if next () <> c then raise (Bad (Printf.sprintf "expected %c" c))
    in
    let parse_lit lit v =
      String.iter expect lit;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' -> (
            match next () with
            | '"' ->
                Buffer.add_char b '"';
                go ()
            | '\\' ->
                Buffer.add_char b '\\';
                go ()
            | '/' ->
                Buffer.add_char b '/';
                go ()
            | 'n' ->
                Buffer.add_char b '\n';
                go ()
            | 't' ->
                Buffer.add_char b '\t';
                go ()
            | 'r' ->
                Buffer.add_char b '\r';
                go ()
            | 'b' ->
                Buffer.add_char b '\b';
                go ()
            | 'f' ->
                Buffer.add_char b '\012';
                go ()
            | 'u' ->
                let h = String.init 4 (fun _ -> next ()) in
                ignore (int_of_string ("0x" ^ h));
                Buffer.add_string b ("\\u" ^ h);
                go ()
            | c -> raise (Bad (Printf.sprintf "bad escape %c" c)))
        | c -> Buffer.add_char b c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while !pos < n && num_char s.[!pos] do
        incr pos
      done;
      float_of_string (String.sub s start (!pos - start))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          expect '{';
          skip_ws ();
          if peek () = '}' then (
            expect '}';
            O [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> members ((k, v) :: acc)
              | '}' -> O (List.rev ((k, v) :: acc))
              | _ -> raise (Bad "object")
            in
            members []
      | '[' ->
          expect '[';
          skip_ws ();
          if peek () = ']' then (
            expect ']';
            A [])
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match next () with
              | ',' -> elems (v :: acc)
              | ']' -> A (List.rev (v :: acc))
              | _ -> raise (Bad "array")
            in
            elems []
      | '"' -> S (parse_string ())
      | 't' -> parse_lit "true" (B true)
      | 'f' -> parse_lit "false" (B false)
      | 'n' -> parse_lit "null" Null
      | _ -> N (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v
end

let test_chrome_export_parses () =
  let t = Trace.create ~capacity:64 () in
  Trace.instant t ~cat:"sched" ~space:(-1)
    ~args:[ ("fiber", Trace.S "a\"b\\c\nd") ]
    "spawn";
  Trace.span_begin t ~cat:"gc" ~space:0 "collect";
  Trace.span_end t ~cat:"gc" ~space:0 "collect";
  Trace.async_begin t ~cat:"net" ~space:0 ~id:7
    ~args:[ ("bytes", Trace.I 12); ("lat", Trace.F 0.25) ]
    "dirty";
  Trace.async_end t ~cat:"net" ~space:1 ~id:7 "dirty";
  match Jparse.parse (Trace.to_chrome t) with
  | Jparse.O fields -> (
      match List.assoc "traceEvents" fields with
      | Jparse.A evs ->
          Alcotest.(check int) "all events exported" 5 (List.length evs);
          List.iter
            (fun ev ->
              match ev with
              | Jparse.O f ->
                  List.iter
                    (fun k ->
                      if not (List.mem_assoc k f) then
                        Alcotest.failf "event missing %s" k)
                    [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ]
              | _ -> Alcotest.fail "event not an object")
            evs;
          (* async events must carry ids *)
          let phases =
            List.filter_map
              (function
                | Jparse.O f -> (
                    match List.assoc "ph" f with
                    | Jparse.S p -> Some (p, List.mem_assoc "id" f)
                    | _ -> None)
                | _ -> None)
              evs
          in
          List.iter
            (fun (p, has_id) ->
              if p = "b" || p = "e" then
                Alcotest.(check bool) "async has id" true has_id)
            phases
      | _ -> Alcotest.fail "traceEvents not an array")
  | _ -> Alcotest.fail "chrome export is not a JSON object"

let test_metrics_json_parses () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "net.sent") 3;
  Metrics.set_gauge (Metrics.gauge m "dirty") 2.0;
  Metrics.observe (Metrics.histogram m "pause") 5.0;
  match Jparse.parse (Json.to_string (Metrics.json m)) with
  | Jparse.O fields ->
      Alcotest.(check (list string))
        "sorted keys"
        [ "dirty"; "net.sent"; "pause" ]
        (List.map fst fields)
  | _ -> Alcotest.fail "metrics json not an object"

(* The library's own parser (what `netobj_sim mc --replay` reads
   counterexamples with) roundtrips the emitter's output and rejects
   malformed input. *)
let test_json_of_string_roundtrip () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "netobj.mc/1");
        ("ok", Json.Bool true);
        ("none", Json.Null);
        ("n", Json.Int 42);
        ("t", Json.Float 1.5);
        ("s", Json.Str "a\"b\\c\nd\twith \x01 ctrl");
        ("xs", Json.List [ Json.Int 1; Json.Float (-0.25); Json.Obj [] ]);
      ]
  in
  (match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "roundtrip" true (doc = doc')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Json.of_string "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "truncated input accepted"
  | Error _ -> ());
  (match Json.of_string "{} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json.of_string " {\"a\" : [ 1 , 2.5 ] } " with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]) ]) -> ()
  | Ok _ -> Alcotest.fail "whitespace-tolerant parse wrong shape"
  | Error e -> Alcotest.failf "whitespace parse failed: %s" e

(* Property: [Json.of_string (Json.to_string j)] recovers [j] for every
   document, modulo the emitter's two lossy normalisations — non-finite
   floats become [null] (JSON has no literal for them) and a finite
   float prints as %.12g, so it reparses as [Int] when that rendering is
   integral and otherwise as the nearest 12-significant-digit float.
   [normalize] applies exactly those two rules; everything else — keys,
   escaped quotes/backslashes, control characters (the \u00XX escapes),
   nesting — must survive byte-exactly.  [Json.of_string] is the one
   parser in the tree: `netobj_sim mc --replay` reads counterexamples
   with it, so this property covers that consumer too. *)
let rec json_normalize = function
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.Float f -> (
      let s = Printf.sprintf "%.12g" f in
      match int_of_string_opt s with
      | Some i -> Json.Int i
      | None -> Json.Float (float_of_string s))
  | Json.List xs -> Json.List (List.map json_normalize xs)
  | Json.Obj kvs ->
      Json.Obj (List.map (fun (k, v) -> (k, json_normalize v)) kvs)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Str _) as j -> j

let json_gen =
  let open QCheck.Gen in
  (* Strings weighted towards the characters the escaper special-cases:
     quotes, backslashes, newlines/tabs, and raw control bytes. *)
  let nasty_char =
    frequency
      [
        (4, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t' ]);
        (2, map Char.chr (int_range 0x00 0x1f));
        (1, map Char.chr (int_range 0x20 0x7e));
        (1, map Char.chr (int_range 0x80 0xff));
      ]
  in
  let str = string_size ~gen:nasty_char (int_bound 12) in
  let flt =
    frequency
      [
        (4, float);
        (2, map float_of_int (int_range (-1000) 1000));
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]);
      ]
  in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int);
        (2, map (fun f -> Json.Float f) flt);
        (3, map (fun s -> Json.Str s) str);
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map
                (fun xs -> Json.List xs)
                (list_size (int_bound 4) (self (n / 2))) );
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair str (self (n / 2)))) );
          ])

let json_roundtrip_prop =
  QCheck.Test.make ~name:"Json.of_string ∘ to_string = normalize" ~count:500
    (QCheck.make json_gen ~print:Json.to_string)
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j' = json_normalize j
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

(* --- determinism oracle ----------------------------------------------------

   The full runtime (scheduler + network + distributed GC) under a fixed
   seed must emit the exact same byte stream twice.  This is the trace
   as a regression oracle: any nondeterminism smuggled into a traced
   code path fails this test. *)

let traced_run () =
  Obs.enable ~capacity:16384 ();
  let cfg =
    R.config ~seed:99L ~gc_period:0.5 ~clean_batch:0.05 ~nspaces:3 ()
  in
  let rt = R.create cfg in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  for i = 1 to 2 do
    R.spawn rt (fun () ->
        let sp = R.space rt i in
        let h = R.lookup sp ~at:0 "c" in
        for _ = 1 to 3 do
          ignore (Stub.call sp h Scenario.m_incr 1)
        done;
        R.release sp h)
  done;
  ignore (R.run ~until:10.0 rt);
  R.collect_all rt;
  ignore (R.run ~until:20.0 rt);
  let chrome = Trace.to_chrome (Obs.trace ()) in
  let text = Trace.to_text (Obs.trace ()) in
  Obs.disable ();
  (chrome, text)

let test_trace_determinism () =
  let c1, t1 = traced_run () in
  let c2, t2 = traced_run () in
  Alcotest.(check bool) "trace is non-trivial" true (String.length c1 > 500);
  Alcotest.(check string) "chrome export byte-identical" c1 c2;
  Alcotest.(check string) "text export byte-identical" t1 t2

let test_disabled_emits_nothing () =
  Obs.enable ~capacity:64 ();
  Obs.disable ();
  let before = Trace.length (Obs.trace ()) in
  let rt = R.create (R.config ~seed:3L ~nspaces:2 ()) in
  let owner = R.space rt 0 in
  let counter = Scenario.counter owner in
  R.publish owner "c" counter;
  R.spawn rt (fun () ->
      let sp = R.space rt 1 in
      let h = R.lookup sp ~at:0 "c" in
      ignore (Stub.call sp h Scenario.m_incr 1);
      R.release sp h);
  ignore (R.run rt);
  Alcotest.(check int)
    "no events recorded while disabled" before
    (Trace.length (Obs.trace ()))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "default clock monotone" `Quick
            test_default_clock_monotone;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "text export" `Quick test_to_text;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram buckets exact" `Quick
            test_histogram_buckets_exact;
          Alcotest.test_case "counters and reset" `Quick
            test_counters_and_reset;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON parses" `Quick
            test_chrome_export_parses;
          Alcotest.test_case "metrics JSON parses" `Quick
            test_metrics_json_parses;
          Alcotest.test_case "Json.of_string roundtrip" `Quick
            test_json_of_string_roundtrip;
          QCheck_alcotest.to_alcotest json_roundtrip_prop;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical traces" `Quick
            test_trace_determinism;
          Alcotest.test_case "disabled emits nothing" `Quick
            test_disabled_emits_nothing;
        ] );
    ]
