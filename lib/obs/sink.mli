(** Pluggable trace sinks: where {!Trace} fans events out to.

    The default state of the process is {e no} sink subscribed, in which
    case instrumentation sites skip event construction entirely
    ({!Trace.on} is one branch) — observability off is effectively
    free. *)

type stamp = {
  slot : int;  (** campaign budget slot, [-1] outside any slot context *)
  lane : int;
      (** deterministic sub-slot lane (the configuration index of a
          parallel fan-out), [-1] for the sequential main lane *)
  seq : int;  (** emission index within the lane, starting at 0 *)
}
(** Deterministic ordering stamp attached by {!Trace.emit}. Within one
    slot, the sequential sections of the pipeline emit on the main lane
    ([-1]) in a fixed order, while a parallel fan-out gives each task
    its own lane whose events are internally ordered by [seq] — so
    [(slot, lane, seq)] is a complete, job-count-independent sort key
    for everything emitted {e between} two main-lane events. *)

type t

val make :
  ?close:(unit -> unit) -> ?sync:(unit -> int option) -> (Event.t -> unit) -> t
(** A stamp-oblivious sink (the common case). [sync] durably flushes
    buffered output and reports the current byte position, if the sink
    has a meaningful one (default: [fun () -> None]). *)

val null : t
(** Swallows everything. Subscribing it still turns {!Trace.on} on;
    for zero overhead simply subscribe nothing. *)

val jsonl : out_channel -> t
(** One JSON object per line on [oc]; [close] flushes (the channel
    itself belongs to the caller). [sync] flushes, [fsync]s, and
    returns [Some (pos_out oc)] — the durable byte offset a campaign
    checkpoint records so a resumed run can truncate the trace file
    back to a slot boundary. *)

val ordered : t -> t
(** Order-on-flush: buffer lane events ([stamp.lane >= 0]) and release
    them to the inner sink sorted by [(slot, lane, seq)] whenever a
    main-lane event arrives (and at [close]). Main-lane events pass
    through immediately, after flushing the buffer.

    Because every parallel fan-out joins before the next main-lane
    event is emitted, this reconstructs exactly the sequential
    ([jobs = 1]) event order — wrapping a {!jsonl} sink in [ordered]
    makes a fixed-seed trace byte-identical at {e any} job count for a
    single campaign. (Campaigns running concurrently — the experiment
    suite at [jobs > 1] — interleave their main lanes
    nondeterministically; [ordered] does not reorder across
    campaigns.) *)

val ring : ?capacity:int -> unit -> t * (unit -> Event.t list)
(** In-memory ring buffer keeping the last [capacity] (default 1024)
    events; the second component returns them oldest-first. Used by
    tests and interactive inspection. *)

val deliver : t -> stamp -> Event.t -> unit
(** Feed one stamped event (what {!Trace.emit} calls). *)

val close : t -> unit

val sync : t -> int option
(** Durably flush the sink and return its byte position, when it has
    one. {!ordered} flushes its reorder buffer first (a no-op at slot
    boundaries, where the buffer is provably empty) and delegates. *)
