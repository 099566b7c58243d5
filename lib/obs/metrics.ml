type counter = { mutable c : int }

type gauge = { mutable g : float }

let nbuckets = 64

type histogram = {
  buckets : int array;  (* log2 buckets: [0] -> (< 1), [k] -> [2^(k-1), 2^k) *)
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type instrument = C of counter | G of gauge | H of histogram

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let global = create ()

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name make expect =
  match Hashtbl.find_opt t.tbl name with
  | Some i -> i
  | None ->
      let i = make () in
      ignore expect;
      Hashtbl.add t.tbl name i;
      i

let counter t name =
  match register t name (fun () -> C { c = 0 }) "counter" with
  | C c -> c
  | i ->
      Fmt.invalid_arg "Metrics.counter: %s is already a %s" name (kind_name i)

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let counter_value c = c.c

let gauge t name =
  match register t name (fun () -> G { g = 0.0 }) "gauge" with
  | G g -> g
  | i -> Fmt.invalid_arg "Metrics.gauge: %s is already a %s" name (kind_name i)

let set_gauge g v = g.g <- v

let gauge_value g = g.g

let fresh_hist () =
  {
    buckets = Array.make nbuckets 0;
    hcount = 0;
    hsum = 0.0;
    hmin = infinity;
    hmax = neg_infinity;
  }

let histogram t name =
  match register t name (fun () -> H (fresh_hist ())) "histogram" with
  | H h -> h
  | i ->
      Fmt.invalid_arg "Metrics.histogram: %s is already a %s" name (kind_name i)

let bucket_of v =
  if not (v >= 1.0) then 0 (* also catches NaN and negatives *)
  else min (nbuckets - 1) (1 + int_of_float (Float.log2 v))

(* Upper bound of a bucket: bucket 0 is everything below 1. *)
let bucket_bound k = if k = 0 then 1.0 else Float.pow 2.0 (float_of_int k)

let observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

let hist_count h = h.hcount

let hist_buckets h =
  let acc = ref [] in
  for k = nbuckets - 1 downto 0 do
    if h.buckets.(k) > 0 then acc := (k, h.buckets.(k)) :: !acc
  done;
  !acc

let quantile h q =
  if h.hcount = 0 then 0.0
  else begin
    let rank =
      max 1 (int_of_float (Float.round (q *. float_of_int h.hcount)))
    in
    let rec go k seen =
      if k >= nbuckets then h.hmax
      else
        let seen = seen + h.buckets.(k) in
        if seen >= rank then bucket_bound k else go (k + 1) seen
    in
    go 0 0
  end

let reset t =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | C c -> c.c <- 0
      | G g -> g.g <- 0.0
      | H h ->
          Array.fill h.buckets 0 nbuckets 0;
          h.hcount <- 0;
          h.hsum <- 0.0;
          h.hmin <- infinity;
          h.hmax <- neg_infinity)
    t.tbl

let instrument_json = function
  | C c -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c.c) ]
  | G g -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float g.g) ]
  | H h ->
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("count", Json.Int h.hcount);
          ("sum", Json.Float h.hsum);
          ("min", Json.Float (if h.hcount = 0 then 0.0 else h.hmin));
          ("max", Json.Float (if h.hcount = 0 then 0.0 else h.hmax));
          ("p50", Json.Float (quantile h 0.5));
          ("p90", Json.Float (quantile h 0.9));
          ("p99", Json.Float (quantile h 0.99));
          ( "buckets",
            Json.List
              (List.map
                 (fun (k, n) -> Json.List [ Json.Int k; Json.Int n ])
                 (hist_buckets h)) );
        ]

let json t =
  Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, i) -> (name, instrument_json i))
  |> fun kvs -> Json.Obj kvs

let to_json_string t = Json.to_string (json t) ^ "\n"
