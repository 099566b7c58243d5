(** Process-wide metrics registry: counters, gauges, log2 histograms.

    Instruments are registered by name and handed back as handles, so
    the hot-path operations ({!incr}, {!add}, {!observe}, {!set_gauge})
    are plain field mutations with no lookup.  Re-requesting a name
    returns the existing instrument; requesting it with a different kind
    raises [Invalid_argument].

    Histograms bucket by powers of two: bucket 0 holds observations
    [< 1], bucket [k >= 1] holds observations in [[2^(k-1), 2^k)].
    That is coarse but cheap, enough to summarise latency and size
    distributions without storing samples.

    {!json} renders the whole registry sorted by instrument name, so a
    dump of deterministic values is itself deterministic. *)

type t

val create : unit -> t

(** The process-wide registry every built-in emission point uses. *)
val global : t

(** {1 Counters} *)

type counter

val counter : t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit

val hist_count : histogram -> int

(** Non-empty buckets as [(bucket_index, count)], ascending. *)
val hist_buckets : histogram -> (int * int) list

(** Upper bound of the bucket holding the [q]-quantile observation
    ([0 <= q <= 1]); [0.] when empty. *)
val quantile : histogram -> float -> float

(** {1 Registry operations} *)

(** Zero every instrument, keeping registrations (handles stay valid). *)
val reset : t -> unit

(** The registry as a JSON object, instruments sorted by name. *)
val json : t -> Json.t

val to_json_string : t -> string
