(* Per-op outcomes of one closed-loop window.  A recorder is touched by
   the fibers of one domain only (one per space on the domains engine).

   Latencies are kept as a systematic sample of bounded size: when the
   buffer fills, every other sample is dropped and the stride doubles, so
   each kept sample stands for [stride] ops and percentiles weight it so.
   Each sample also records the 1 s segment of the window it completed
   in.  A recorder made with [~sample_cpu:true] also reads the process's
   CPU time at the first completion of each segment. *)

let bucket_ns = 100_000_000

let segment_ns = 1_000_000_000

type t = {
  t_start : int;
  t_end : int;
  mutable ok : int;
  mutable failed : int;
  mutable first_error : string option;
  lat : int array;
  seg : int array;
  mutable n : int;
  mutable stride : int;
  mutable skip : int;
  buckets : int array;  (** completions per 100 ms of the window *)
  cpu_at : float array;  (** CPU seconds at each segment's start; nan if unread *)
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let create ?(sample_cpu = false) ~cap ~t_start ~t_end () =
  {
    t_start;
    t_end;
    ok = 0;
    failed = 0;
    first_error = None;
    lat = Array.make cap 0;
    seg = Array.make cap 0;
    n = 0;
    stride = 1;
    skip = 0;
    buckets = Array.make (((t_end - t_start) / bucket_ns) + 1) 0;
    cpu_at =
      (if sample_cpu then Array.make (((t_end - t_start) / segment_ns) + 1) nan
       else [||]);
  }

let in_window r t1 = t1 >= r.t_start && t1 <= r.t_end

let ok r ~t0 ~t1 =
  let sg = (t1 - r.t_start) / segment_ns in
  if t1 >= r.t_start && sg < Array.length r.cpu_at && Float.is_nan r.cpu_at.(sg)
  then r.cpu_at.(sg) <- cpu_s ();
  if in_window r t1 then begin
    r.ok <- r.ok + 1;
    let b = (t1 - r.t_start) / bucket_ns in
    if b >= 0 && b < Array.length r.buckets then
      r.buckets.(b) <- r.buckets.(b) + 1;
    r.skip <- r.skip + 1;
    if r.skip >= r.stride then begin
      r.skip <- 0;
      if r.n = Array.length r.lat then begin
        for i = 0 to (r.n / 2) - 1 do
          r.lat.(i) <- r.lat.(2 * i);
          r.seg.(i) <- r.seg.(2 * i)
        done;
        r.n <- r.n / 2;
        r.stride <- r.stride * 2
      end;
      r.lat.(r.n) <- t1 - t0;
      r.seg.(r.n) <- (t1 - r.t_start) / segment_ns;
      r.n <- r.n + 1
    end
  end

let fail r ~t1 msg =
  if in_window r t1 then begin
    r.failed <- r.failed + 1;
    if r.first_error = None then r.first_error <- Some msg
  end

let ok_count rs = List.fold_left (fun a r -> a + r.ok) 0 rs

let failed_count rs = List.fold_left (fun a r -> a + r.failed) 0 rs

let first_error rs = List.find_map (fun r -> r.first_error) rs

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Latency percentiles in ns, each the median over the window's full 1 s
   segments of that segment's weighted percentile: a stretch of host
   contention in one part of the window moves it less than a percentile
   over the whole window.  [~segmented:false] takes them over the whole
   window instead, for percentiles too high for a segment's samples. *)
let percentiles ?(segmented = true) rs ps =
  let vals = Array.concat (List.map (fun r -> Array.sub r.lat 0 r.n) rs) in
  let segs = Array.concat (List.map (fun r -> Array.sub r.seg 0 r.n) rs) in
  let wts = Array.concat (List.map (fun r -> Array.make r.n r.stride) rs) in
  let order = Array.init (Array.length vals) Fun.id in
  Array.sort (fun i j -> compare vals.(i) vals.(j)) order;
  let nseg =
    match rs with [] -> 0 | r :: _ -> (r.t_end - r.t_start) / segment_ns
  in
  let in_seg s = Array.of_list (List.filter (fun i -> segs.(i) = s) (Array.to_list order)) in
  let by_seg =
    if segmented && nseg > 0 then List.init nseg in_seg else [ order ]
  in
  let pct idx p =
    let total = Array.fold_left (fun a i -> a + wts.(i)) 0 idx in
    let goal = p *. float_of_int total in
    let rec go k acc =
      let i = idx.(k) in
      let acc = acc + wts.(i) in
      if k = Array.length idx - 1 || float_of_int acc >= goal then vals.(i)
      else go (k + 1) acc
    in
    go 0 0
  in
  List.map
    (fun p ->
      median_float
        (List.filter_map
           (fun idx ->
             if Array.length idx = 0 then None
             else Some (float_of_int (pct idx p)))
           by_seg))
    ps

(* Latency samples kept, over all recorders. *)
let samples rs = List.fold_left (fun a r -> a + r.n) 0 rs

(* CPU microseconds per op in each full 1 s segment whose both ends were
   read, ops summed over recorders. *)
let cpu_us_per_op rs =
  match List.find_opt (fun r -> Array.length r.cpu_at > 0) rs with
  | None -> []
  | Some c ->
      let per_seg = segment_ns / bucket_ns in
      List.filter_map
        (fun sg ->
          let a = c.cpu_at.(sg) and b = c.cpu_at.(sg + 1) in
          let n =
            List.fold_left
              (fun acc r ->
                let m = ref acc in
                for i = sg * per_seg to ((sg + 1) * per_seg) - 1 do
                  m := !m + r.buckets.(i)
                done;
                !m)
              0 rs
          in
          if Float.is_nan a || Float.is_nan b || n = 0 then None
          else Some ((b -. a) *. 1e6 /. float_of_int n))
        (List.init (Array.length c.cpu_at - 1) Fun.id)

(* Completion rates (ops/s) of the window's full 100 ms buckets, summed
   over recorders. *)
let rates rs =
  match rs with
  | [] -> [||]
  | r :: _ ->
      let full = (r.t_end - r.t_start) / bucket_ns in
      Array.init full (fun i ->
          let n = List.fold_left (fun a r -> a + r.buckets.(i)) 0 rs in
          float_of_int n *. 1e9 /. float_of_int bucket_ns)
