(* The call benchmark's measuring program.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--inject-send-ns NS] [--trace-out FILE]

   --trace 0 reports the end-to-end metrics of one untraced window, after
   [setups] timed set-ups.  --trace 1 runs an untraced and a traced window
   of S/2 each and reports the per-layer breakdown.  The last line of
   standard output is the JSON result; a human-readable account goes to
   standard error. *)

module R = Netobj_core.Runtime
module Transport = Netobj_transport.Transport
module Frame = Netobj_transport.Frame

let setups = 9

(* The traced run's layer self times must cover the driver loop's wall
   time to within this share. *)
let sum_to_whole_tolerance = 0.05

let kinds = [ "call"; "reply"; "dirty"; "dirty_ack"; "copy_ack"; "clean"; "clean_ack" ]

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let inject_ns = ref 0
let trace_out = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "W  null-tcp|bulk-tcp|refs-tcp|ring-domains");
    ("--seed", Arg.Set_int seed, "N  input seed");
    ("--seconds", Arg.Set_float seconds, "S  measured wall-clock seconds");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ( "--inject-send-ns",
      Arg.Set_int inject_ns,
      "NS  busy-wait NS inside every transport send (attribution self-test)" );
    ("--trace-out", Arg.Set_string trace_out, "FILE  write the kept spans as JSON");
  ]

let eprintf = Printf.eprintf

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
  float_of_int kb /. 1024.0

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let ops (w : Work.window) = Recorder.ok_count w.recs

(* The mean of the central fifth (40th to 60th percentile) of the
   window's 100 ms completion rates: a median, so the shared host's
   fast and slow spells in part of the window barely move it, without
   the median's quantisation to whole ops per bucket. *)
let ops_per_s (w : Work.window) =
  let a = Recorder.rates w.recs in
  Array.sort compare a;
  let n = Array.length a in
  let lo = 2 * n / 5 and hi = n - (2 * n / 5) in
  if hi <= lo then 0.0
  else Array.fold_left ( +. ) 0.0 (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

(* Set up, measure and finish one instance.  Peak memory is read before
   the oracle's checks and the benchmark's own statistics allocate. *)
let run_instance mk ~probe ~seconds ~traced =
  let t0 = Spans.now_ns () in
  let inst : Work.instance = mk ~seed:!seed ~probe in
  let setup_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  let w = inst.measure ~seconds ~traced in
  let rss = peak_rss_mb () in
  let totals = Spans.totals () in
  let o = inst.finish () in
  (inst, setup_s, w, rss, totals, o)

(* Oracle and fault-free-plane checks shared by both modes. *)
let problems (inst : Work.instance) (w : Work.window) (o : Work.oracle) =
  let a = w.after in
  let failed = Recorder.failed_count w.recs in
  o.errors
  @ (if failed > 0 then
       [
         Printf.sprintf "%d ops failed, first: %s" failed
           (Option.value ~default:"?" (Recorder.first_error w.recs));
       ]
     else [])
  @ (if o.residue <> 0 then [ Printf.sprintf "residue %d after the drain" o.residue ] else [])
  @ (if inst.tcp && a.s_tstats.Transport.dropped <> 0 then
       [ Printf.sprintf "%d messages dropped" a.s_tstats.Transport.dropped ]
     else [])
  @ (if inst.tcp && a.s_tstats.Transport.reconnects <> 0 then
       [ Printf.sprintf "%d reconnects" a.s_tstats.Transport.reconnects ]
     else [])
  @ (if a.s_retried <> 0 || a.s_shed <> 0 then
       [ Printf.sprintf "retried %d, shed %d on an unarmed plane" a.s_retried a.s_shed ]
     else [])

let result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (name, unit, v) ->
      let v = if Float.is_finite v then v else 0.0 in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit)
    metrics;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let latency_us ?segmented (w : Work.window) ps =
  List.map (fun ns -> ns /. 1e3) (Recorder.percentiles ?segmented w.recs ps)

let end_to_end mk =
  let probe () =
    if !inject_ns > 0 then Some (Probe.create ~seed:!seed ~inject_ns:!inject_ns)
    else None
  in
  (* Every set-up but the last is torn down unmeasured. *)
  let setup_times = ref [] in
  for _ = 1 to setups - 1 do
    let t0 = Spans.now_ns () in
    let inst : Work.instance = mk ~seed:!seed ~probe:(probe ()) in
    setup_times := (float_of_int (Spans.now_ns () - t0) /. 1e9) :: !setup_times;
    inst.close ()
  done;
  let inst, setup_s, w, rss, _, o =
    run_instance mk ~probe:(probe ()) ~seconds:!seconds ~traced:false
  in
  inst.close ();
  let setup_times = setup_s :: !setup_times in
  let n = ops w and failed = Recorder.failed_count w.recs in
  let payload = w.after.s_payload - w.before.s_payload in
  let p50, p99 =
    match latency_us w [ 0.50; 0.99 ] with [ a; b ] -> (a, b) | _ -> assert false
  in
  let errs = problems inst w o in
  List.iter (eprintf "oracle: %s\n") errs;
  eprintf "ops/s per 100 ms: %s\n"
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.0f") (Recorder.rates w.recs))));
  eprintf "%s: %d ops in %.2f s, %d failed, %d latency samples; set-ups %s s\n%!"
    !workload n !seconds failed
    (Recorder.samples w.recs)
    (String.concat " " (List.map (Printf.sprintf "%.3f") (List.rev setup_times)));
  result ~correct:(errs = []) ~attempted:(n + failed) ~failed
    [
      ("ops_per_s", "1/s", ops_per_s w);
      ("op_p50_us", "us", p50);
      ("op_p99_us", "us", p99);
      ( "payload_mb_per_s", "MB/s",
        ops_per_s w *. (float_of_int payload /. 2.0 /. float_of_int (max 1 w.cpu_ops)) /. 1e6 );
      ("cpu_us_per_op", "us", Recorder.median_float (Recorder.cpu_us_per_op w.recs));
      ("ok_frac", "frac", fdiv n (n + failed));
      ("setup_s", "s", Recorder.median_float setup_times);
      ("peak_rss_mb", "MB", rss);
    ]

let per_layer mk =
  let half = !seconds /. 2.0 in
  let u_inst, _, uw, _, _, uo = run_instance mk ~probe:None ~seconds:half ~traced:false in
  u_inst.close ();
  let probe = Probe.create ~seed:!seed ~inject_ns:!inject_ns in
  let inst, _, w, _, t, o = run_instance mk ~probe:(Some probe) ~seconds:half ~traced:true in
  inst.close ();
  let rp = Replay.run (Probe.captured probe.capture) in
  let errs = problems u_inst uw uo @ problems inst w o in
  let n = ops w and failed = Recorder.failed_count w.recs in
  let b = w.before and a = w.after in
  (* Spans and counters cover [before]..[after]. *)
  let per_op x = fdiv x w.cpu_ops in
  let us_per_op ns = fdiv ns w.cpu_ops /. 1e3 in
  let self l = t.Spans.t_self.(Spans.index l) in
  let loop_ns = w.loop_ns in
  let nonrun_self =
    Array.fold_left ( + ) 0 t.Spans.t_self - self Spans.Run
  in
  (* On the domains engine every pool domain spends the whole episode
     inside Runtime.run; the spans of both nest in it. *)
  let engine_self_ns =
    if inst.tcp then self Spans.Run
    else
      let pool = min (R.nshards inst.rt) (Domain.recommended_domain_count ()) in
      (t.Spans.t_total.(Spans.index Spans.Run) * pool) - nonrun_self
  in
  (* What the driver loop's layer spans cover: on TCP the roots (engine
     and pump), whose self times sum to them; on the domains engine the
     episodes, whose nested spans ran on two domains at once. *)
  let covered_ns =
    if inst.tcp then t.Spans.t_root else t.Spans.t_total.(Spans.index Spans.Run)
  in
  let unattributed = fdiv (loop_ns - covered_ns) loop_ns in
  let sum_err =
    if inst.tcp then
      Float.abs (fdiv (loop_ns - Array.fold_left ( + ) 0 t.Spans.t_self) loop_ns)
    else Float.abs unattributed
  in
  let errs =
    errs
    @ (if inst.tcp && (sum_err > sum_to_whole_tolerance || t.Spans.t_misnested <> 0)
       then
         [
           Printf.sprintf
             "layer self times cover %.1f%% of the driver loop (tolerance %.0f%%), %d misnested spans"
             (100.0 *. (1.0 -. sum_err)) (100.0 *. sum_to_whole_tolerance)
             t.Spans.t_misnested;
         ]
       else [])
  in
  List.iter (eprintf "oracle: %s\n") errs;
  let ts = a.s_tstats and tb = b.s_tstats in
  let kind_count st k = match List.assoc_opt k st with Some (c, _) -> c | None -> 0 in
  let tcp_only x = if inst.tcp then x else 0.0 in
  let kind_cost k get =
    match List.find_opt (fun c -> c.Replay.kind = k) rp.per_kind with
    | Some c -> get c
    | None -> 0.0
  in
  let hits = fst a.s_pool - fst b.s_pool and misses = snd a.s_pool - snd b.s_pool in
  let collect_n = t.Spans.t_count.(Spans.index Spans.Collect) in
  let p999 = match latency_us ~segmented:false uw [ 0.999 ] with [ x ] -> x | _ -> 0.0 in
  let shard_min = Array.fold_left min max_int w.shard_ops
  and shard_max = Array.fold_left max 0 w.shard_ops in
  let metrics =
    [
      ("transport.send_us_per_msg", "us", tcp_only (fdiv (self Spans.Send) (a.s_msgs - b.s_msgs) /. 1e3));
      ("transport.pump_self_us_per_op", "us", us_per_op (self Spans.Pump));
      ("transport.pumps_per_op", "count", per_op (a.s_pumps - b.s_pumps));
      ("transport.idle_pump_frac", "frac", fdiv (a.s_idle_pumps - b.s_idle_pumps) (a.s_pumps - b.s_pumps));
    ]
    @ List.map
        (fun k ->
          ( "transport.msgs_per_op." ^ k,
            "count",
            tcp_only (per_op (kind_count a.s_kinds k - kind_count b.s_kinds k)) ))
        kinds
    @ [
        ( "transport.wire_bytes_per_op", "B",
          tcp_only
            (per_op
               (ts.Transport.bytes - tb.Transport.bytes
               + ((ts.Transport.sent - tb.Transport.sent) * Frame.overhead))) );
        ("transport.frames_per_op", "count", tcp_only (per_op (ts.Transport.sent - tb.Transport.sent)));
        ("transport.dropped", "count", tcp_only (float_of_int ts.Transport.dropped));
        ("transport.reconnects", "count", tcp_only (float_of_int ts.Transport.reconnects));
        ("frame.encode_ns_per_kib", "ns", rp.frame_encode_ns_per_kib);
        ("frame.decode_ns_per_kib", "ns", rp.frame_decode_ns_per_kib);
        ("proto.encode_ns_per_msg", "ns", rp.encode_ns);
        ("proto.decode_ns_per_msg", "ns", rp.decode_ns);
      ]
    @ List.concat_map
        (fun k ->
          [
            ("proto.encode_ns_per_msg." ^ k, "ns", kind_cost k (fun c -> c.Replay.encode_ns));
            ("proto.decode_ns_per_msg." ^ k, "ns", kind_cost k (fun c -> c.Replay.decode_ns));
          ])
        kinds
    @ [
        ("pickle.args_us_per_op", "us", us_per_op (self Spans.Pickle));
        ("pickle.pool_hit_frac", "frac", fdiv hits (hits + misses));
        ("stub.method_us_per_op", "us", us_per_op (self Spans.Method));
        ("runtime.recv_us_per_msg", "us", tcp_only (fdiv (self Spans.Recv) (a.s_delivered - b.s_delivered) /. 1e3));
        ("runtime.dirty_per_op", "count", per_op (a.s_dirty - b.s_dirty));
        ("runtime.clean_per_op", "count", per_op (a.s_clean - b.s_clean));
        ("runtime.copy_ack_per_op", "count", per_op (a.s_copy_ack - b.s_copy_ack));
        ("runtime.fresh_surrogate_frac", "frac", per_op (a.s_dirty - b.s_dirty));
        ( "runtime.collect_us", "us",
          fdiv t.Spans.t_total.(Spans.index Spans.Collect) collect_n /. 1e3 );
        ("runtime.residue", "count", float_of_int (o.residue + uo.residue));
        ("runtime.retried", "count", float_of_int a.s_retried);
        ("runtime.shed", "count", float_of_int a.s_shed);
        ("engine.run_self_us_per_op", "us", us_per_op engine_self_ns);
        ("engine.runs_per_op", "count", per_op (a.s_runs - b.s_runs));
        ("engine.busy_cores", "cores", (a.s_cpu -. b.s_cpu) /. (float_of_int loop_ns /. 1e9));
        ("engine.shard_skew", "ratio", fdiv shard_max shard_min);
        ("latency.op_p999_us", "us", p999);
        ("latency.samples", "count", float_of_int (ops uw));
        ("trace.overhead_frac", "frac", 1.0 -. (ops_per_s w /. ops_per_s uw));
        ("trace.unattributed_frac", "frac", unattributed);
        ("trace.sum_to_whole_err", "frac", sum_err);
        ("trace.misnested", "count", float_of_int t.Spans.t_misnested);
      ]
  in
  if !trace_out <> "" then Spans.write_json !trace_out;
  eprintf "%s traced: %d ops in %.2f s (untraced %d); layer self time per op:\n"
    !workload n half (ops uw);
  Array.iteri
    (fun l name ->
      eprintf "  %-16s %10.3f us  (%d spans)\n" name
        (us_per_op t.Spans.t_self.(l)) t.Spans.t_count.(l))
    Spans.names;
  eprintf "  %-16s %10.3f us  (driver loop %.3f us/op)\n%!" "unattributed"
    (us_per_op (loop_ns - covered_ns)) (us_per_op loop_ns);
  let failed = failed + Recorder.failed_count uw.recs in
  result ~correct:(errs = []) ~attempted:(n + ops uw + failed) ~failed metrics

(* A 1 Mword (8 MiB) minor heap per domain.  With OCaml's default of
   256 Kwords the domains engine stops both domains for a minor
   collection several hundred times a second, and whether a stop lands
   while the shared host has descheduled one of them doubles the ring's
   p99 from one run to the next.  The setting is the benchmark's, the
   same on every commit it measures. *)
let minor_heap_words = 1 lsl 20

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  match List.assoc_opt !workload Work.all with
  | None ->
      eprintf "unknown workload %S (want one of: %s)\n" !workload
        (String.concat ", " (List.map fst Work.all));
      exit 2
  | Some mk -> if !trace = 0 then end_to_end mk else per_layer mk
