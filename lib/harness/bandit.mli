(** Epsilon-greedy bandit allocation over the five generation arms.

    A bandit campaign ([campaign bandit], {!Approach.Bandit}) treats
    every budget slot as a pull and allocates it to the arm with the
    best {e recent} inconsistencies per simulated second — the same
    efficiency signal {!Obs.Coverage.strategy_rates} reports, measured
    over the same rolling window of the simulated clock. Cold arms get
    a warmup pull each; after that an [epsilon] fraction of slots
    explore uniformly and the rest exploit the best windowed rate
    (ties to the fixed arm order).

    Determinism contract: {!select} consumes exactly two uniform draws
    from the bandit's own split stream per slot, regardless of branch —
    so stream position is a function of pull count alone, and the
    posterior plus stream state serialize into the campaign checkpoint
    ({!to_json}/{!restore}) for byte-identical kill/resume at any
    point. *)

(** The five generation arms: the campaign's one generator vocabulary.
    Every {!Approach.t} is an allocation policy over them — a fixed
    arm, LLM4FP's coin flip between [Grammar] and [Mutate], or this
    module's epsilon-greedy {!select}. *)
type arm =
  | Mutate   (** the LLM4FP feedback mutation loop *)
  | Varity   (** random grammar generation, no LLM *)
  | Direct   (** direct LLM prompt *)
  | Grammar  (** grammar-guided LLM prompt *)
  | Grow     (** archived-case growth: {!Gen.Grow} on the seed pool *)

val arms : arm array
(** Fixed order: mutate, varity, direct, grammar, grow. Warmup and tie
    resolution follow it. *)

val arm_name : arm -> string
(** The slot label in traces and coverage ("mutate", "varity",
    "direct", "grammar", "grow"), the same for fixed-arm and bandit
    campaigns. *)

val arm_of_name : string -> arm option

type t

val default_epsilon : float
(** 0.1 *)

val create : ?epsilon:float -> ?window:float -> rng:Util.Rng.t -> unit -> t
(** A cold bandit owning [rng] (one {!Util.Rng.split} of the campaign
    stream). [window] defaults to {!Obs.Coverage.default_window} so the
    bandit and the coverage observatory agree on what "recent" means. *)

val pulls : t -> arm -> int

val reward : t -> arm -> now:float -> float
(** Windowed inconsistencies per simulated second at [now]; 0 before
    any windowed cost. Prunes expired window entries as a side effect. *)

type choice = {
  arm : arm;
  pulls_before : int;
  estimate : float;  (** windowed reward of the chosen arm at choice time *)
  explore : bool;    (** warmup or epsilon-exploration, not exploitation *)
}

val select : t -> now:float -> mutate_ok:bool -> grow_ok:bool -> choice
(** Choose the next slot's arm. [mutate_ok]/[grow_ok] gate the two arms
    that need a non-empty seed pool (the feedback set, the grow pool);
    ineligible arms are never chosen but the draw count is unaffected. *)

val update :
  t -> arm -> inconsistencies:int -> sim_cost:float -> now:float -> unit
(** Record a completed pull: the slot's inconsistency delta and its
    simulated cost, stamped at the slot's final simulated time. *)

val to_json : t -> Obs.Json.t
(** The full posterior — per-arm pulls, lifetime totals, rolling window
    entries — plus the stream position. Deterministic bytes: equal
    states serialize equally. *)

val restore : t -> Obs.Json.t -> (unit, string) result
(** Overwrite a freshly created bandit with a {!to_json} snapshot.
    Rejects snapshots whose epsilon/window disagree with the caller's. *)

val table : t -> (string * int * int * float * float) list
(** Per-arm report rows in fixed order:
    (name, pulls, inconsistencies, simulated seconds, lifetime rate). *)
