(** Timed spans for profiling the pipeline's hot paths.

    Disabled (the default), {!with_span} adds one branch around the
    thunk. Enabled ([set_enabled true]), each span records real
    wall-clock seconds and — when a simulated clock is attached — the
    simulated seconds elapsed inside it. Aggregation is keyed by the
    span's {e path} (the stack of enclosing span labels, tracked
    domain-locally), so the same label reached through different
    parents aggregates separately and {!tree} reconstructs the call
    hierarchy with per-node self time. The flat {!summary} merges paths
    on their leaf label, so per-label totals are unchanged from the
    pre-tree behaviour: a nested span's time is accounted under its own
    label {e and} inside its enclosing span's.

    Real time appears only here, never in trace events — span summaries
    are the one deliberately non-deterministic surface.

    Domain safety: each domain aggregates into its own table (lock-free
    recording under the {!Exec.Pool} workers) and read-side functions
    merge the per-domain tables. The label stack is domain-local, so
    spans recorded inside pool workers become roots of that domain's
    tree; at jobs = 1 the pool runs tasks inline and nesting is
    preserved. The attached simulated clock is domain-local as well.
    Take summaries after parallel sections have drained — pool workers
    idle between batches do not record. *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val with_clock : Util.Sim_clock.t -> (unit -> 'a) -> 'a
(** [with_clock c f] runs [f] with [c] attached as the simulated clock
    whose delta each span should also capture (the campaign runner
    attaches its own for the duration of a run), then restores the
    previous attachment (exception-safe). The attachment is
    domain-local. *)

val charge_sim : float -> unit
(** Charge simulated seconds to the attached clock, if any (no-op
    otherwise). Lets layers that cannot see the campaign's clock —
    the compiler driver's retry backoff — account deterministic
    modelled costs. Domain-local, like the attachment itself. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk, attributing its duration to [label] nested under the
    currently open spans of this domain. Records on exceptions too. *)

type row = {
  label : string;
  count : int;
  total_s : float;
  mean_s : float;
  max_s : float;
  sim_s : float;
}

val summary : unit -> row list
(** Flat per-label aggregates (paths merged on leaf label), sorted by
    label. *)

type node = {
  n_label : string;
  n_path : string list;  (** root-first, ending in [n_label] *)
  n_count : int;
  n_total_s : float;  (** real seconds inside this path, children included *)
  n_self_s : float;
      (** [n_total_s] minus the children's totals, clamped at 0 (a
          summary taken mid-span can transiently under-count a
          parent) *)
  n_max_s : float;
  n_sim_s : float;
  n_sim_self_s : float;
  n_children : node list;  (** sorted by label *)
}

val tree : unit -> node list
(** The span hierarchy as recorded, roots sorted by label. Spans run in
    pool worker domains appear as roots of their own (the worker cannot
    see the submitting domain's stack); at jobs = 1 nesting is exact. *)

val render_tree : unit -> string
(** The tree as an indented {!Report.Table}. *)

val flame : unit -> Json.t
(** The tree as Chrome trace-event JSON ([{"traceEvents": [...]}] with
    ["ph": "X"] complete events, microsecond [ts]/[dur]) loadable in
    [chrome://tracing] / Perfetto. The timeline is synthetic — nodes are
    aggregates, laid out depth-first with each child nested inside its
    parent; a parent's duration is at least the sum of its children's. *)

val render : unit -> string
(** The flat summary as a {!Report.Table}. *)

val reset : unit -> unit
