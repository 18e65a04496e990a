(** Process-wide registry of named counters, gauges and fixed-bucket
    histograms.

    Instruments are {e get-or-create} by name — create them once at
    module initialization, then update through the returned handle: a
    counter bump is a single atomic fetch-and-add, cheap enough to stay
    enabled unconditionally (the acceptance budget for "observability
    off" is ~free) and safe from any {!Exec.Pool} worker domain —
    parallel runs produce exactly the totals of the equivalent
    sequential run. Snapshots are sorted by name, so the rendered table
    is deterministic. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create. Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float

val default_buckets : float array
(** [0.001; 0.01; 0.1; 1; 10; 100] — decade buckets in seconds. *)

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; one overflow bucket
    is added beyond the last. Defaults to {!default_buckets}. *)

val observe : histogram -> float -> unit

val percentile_of : bounds:float array -> counts:int array -> float -> float
(** [percentile_of ~bounds ~counts q] estimates the [q]-quantile
    ([0 < q <= 1]) from fixed-bucket data by linear interpolation
    inside the bucket holding rank [ceil (q × n)] (the usual
    Prometheus-style estimate): a value in the overflow bucket reports
    the last finite bound. An {e empty} histogram has no quantiles and
    reports [nan] — callers that print should render it as ["-"], as
    the registry dumps here do; [nan] (unlike the [0] it used to
    return) can never be confused with a real quantile. Deterministic
    in the observations, so quantiles of model-time histograms are
    seed-reproducible. *)

val histogram_percentile : histogram -> float -> float
(** {!percentile_of} on a live instrument's current contents. *)

val render_percentiles : unit -> string
(** Every registered histogram as a name-sorted p50/p95/p99 summary
    table (the latency-percentile dump of the [profile] subcommand).
    Histograms with no observations appear with ["-"] in each
    percentile column. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;  (** length = bounds + 1 (overflow last) *)
      count : int;
      sum : float;
    }

val snapshot : unit -> (string * value) list
(** Every registered instrument, sorted by name. *)

val render_table : unit -> string
(** The snapshot as a {!Report.Table} (name-sorted, deterministic). *)

val reset : unit -> unit
(** Zero every instrument in place (handles stay valid). For tests and
    for isolating consecutive runs inside one process. *)
