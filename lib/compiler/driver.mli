(** The compilation driver (paper §2.4).

    Prepares a generated program for execution on host and device: the
    host path compiles the C translation unit; the device path first
    translates C to CUDA ([compute] becomes a single-thread
    [__global__] kernel) and compiles that. "Compiling" means: validate
    the program, lower it to IR, and run the configuration's pass
    pipeline (constant folding → fast-math rewrites → FMA contraction →
    dead-store elimination). The result is a binary: optimized IR plus
    the runtime configuration.

    The front end is split from the back end. The C and CUDA
    translation units are two renderings of one AST, and both parse
    back and lower to exactly the IR of the AST itself (the
    [front-end-ir] property suite checks this over every generator), so
    one program needs exactly {e one} front-end pass for all eighteen
    configurations. The translation unit is printed only when something
    reads it ({!source}). nvcc translation failures are not modelled:
    a program that validates compiles for both targets. {!fronts}
    carries the memoized front end (domain-safe; shareable across an
    {!Exec.Pool} fan-out) and {!compile_with} runs only the per-config
    back end against it. The cache's effectiveness is observable as the
    [compiler.frontend.runs] / [compiler.frontend.cache_hits] metrics.

    Fault tolerance: every stage entry point (front end, back end,
    execution) is an {!Exec.Faults} injection site with a bounded-retry
    policy for transient failures — up to two retries with deterministic
    exponential backoff charged to the attached simulated clock
    ({!Obs.Span.charge_sim}); exhaustion re-raises the original
    {!Exec.Faults.Transient}. Counted by the [retry.compiler.*]
    metrics. *)

type binary = {
  config : Config.t;
  program : Lang.Ast.program;  (** the program the binary was compiled from *)
  ir : Irsim.Ir.t;  (** after the pass pipeline *)
  vm : Irsim.Vm.program;
      (** the flattened program, built once per back-end output; carries
          the configuration's runtime pre-bound *)
  work : int;       (** IR node count, the compile/execute cost proxy *)
}

(** The execution engine {!execute} runs: the register VM over the
    flattened program cached on the binary. {!Irsim.Interp} is the
    bit-exact reference it is checked against (the [vm-equiv] property
    suite and the program-level difftest and harness checks); tests call
    it directly. *)
type engine = Vm

val engine_name : engine -> string

val engine : unit -> engine

val of_ir :
  config:Config.t -> program:Lang.Ast.program -> work:int -> Irsim.Ir.t ->
  binary
(** Package optimized IR as a binary, flattening it for the VM under
    [config]'s runtime. The one constructor every binary goes through —
    keeps hand-built binaries (isolation probes) executable on the VM. *)

val source : binary -> string
(** The translation unit the binary stands for: the C rendering of its
    program for a host configuration, the CUDA rendering for nvcc.
    Printed on each call. *)

type target = [ `Host | `Device ]

type front
(** A completed front-end pass: the validated program and its lowered
    (pre-pipeline) IR. Immutable and shareable. *)

type fronts
(** Per-program front-end cache holding one entry, shared by both
    targets. Lazy and mutex-guarded: concurrent {!compile_with} calls
    from pool workers compute it once and share the result. *)

val fronts : Lang.Ast.program -> fronts
(** An empty cache for [program]; no front-end work happens yet. *)

val target_of : Config.t -> target

val front_end : fronts -> target -> (front, string) result
(** The memoized front end: validate + lower, computed on first use and
    cached (errors are cached too). Both targets get the same entry, so
    every call after the first is a cache hit. The error string carries
    no configuration name. *)

val back_end : Config.t -> front -> binary
(** The per-configuration pass pipeline over the shared front-end IR
    (which is never mutated — every binary gets its own optimized IR). *)

val compile_with : fronts -> Config.t -> (binary, string) result
(** [front_end] + [back_end] with the historic [compile] accounting:
    per-configuration success/failure metrics and [Compiled] trace
    events, and failure messages prefixed with the configuration name. *)

val compile : Config.t -> Lang.Ast.program -> (binary, string) result
(** One-shot compilation (a fresh single-use cache). Validation or
    lowering failure yields [Error] (a compilation failure; the harness
    counts it and moves on, per §2.4 "only binaries that compile
    successfully are passed to the next stage"). *)

val execute : binary -> Irsim.Inputs.t -> Irsim.Interp.outcome
(** Raw execution on the VM: the [compiler.interp] span
    and the fault-injection site, but no metrics and no trace event.
    {!Difftest.Run} uses this to run each deduplicated binary once and
    then {!account} the outcome to every configuration that shares it. *)

val account : binary -> Irsim.Interp.outcome -> unit
(** Book an execution outcome against [binary]'s configuration: the
    [compiler.runs] / [compiler.fp_ops] metrics and (when tracing) an
    [Executed] event stamped with the caller's slot/lane context. *)

val run : binary -> Irsim.Inputs.t -> Irsim.Interp.outcome
(** [execute] + [account]: the historic one-call entry point. *)

val run_hex : binary -> Irsim.Inputs.t -> string
(** The 16-character hexadecimal encoding of the printed result — the
    comparison key of the paper's differential testing. *)

val matrix :
  ?configs:Config.t list ->
  ?jobs:int ->
  Lang.Ast.program ->
  ((Config.t * binary, Config.t * string) Either.t) list
(** Compile under every configuration (default: the full 18-entry
    matrix), keeping per-configuration successes and failures in
    configuration order. The front end runs at most once regardless of
    configuration count, and [jobs > 1] fans the per-configuration back
    ends across the {!Exec.Pool} — results are identical at any job
    count. *)
