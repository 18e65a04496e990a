(** Deterministic pseudo-random number generation.

    All randomness in the framework flows through this module so that every
    experiment is reproducible from a single seed. The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, excellent
    statistical quality for simulation workloads, and cheap splitting, which
    lets independent pipeline stages draw from decorrelated streams. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. Equal seeds
    yield equal streams. *)

val of_int : int -> t
(** [of_int seed] is [create] on the sign-extended integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream. *)

val state : t -> int64 * float option
(** [state t] exposes the full generator state — the SplitMix64 counter
    and the banked Box–Muller half — for durable snapshots.
    [set_state u (state t)] makes [u] replay [t]'s future stream
    exactly. *)

val set_state : t -> int64 * float option -> unit
(** Overwrite a generator's state in place with a {!state} snapshot
    (for restoring sessions that hold their generator immutably). *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s continuation. Use one split per pipeline stage. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]).
    Always consumes exactly one uniform draw, even at the boundary
    values [p <= 0.] and [p >= 1.], so probability schedules that reach
    an endpoint keep replay streams in sync. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val weighted : t -> (float * 'a) array -> 'a
(** [weighted t items] picks an element with probability proportional to its
    weight. Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> 'a list -> int -> 'a list
(** [sample t xs k] draws [min k (length xs)] distinct elements, preserving
    no particular order. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). Each uniform pair yields two
    deviates: the cosine half is returned immediately and the sine half
    is cached on [t] and returned by the next call, so consecutive calls
    consume two uniform draws per {e pair} rather than per value.
    {!copy} replays the cached half; {!split} children start with an
    empty cache. *)
