(** Math-library vendor dispatch.

    Each simulated compiler configuration links one flavor:

    - [Glibc] — the GNU C library's libm; both host compilers link it
      (paper §3.1.1), so it is the baseline.
    - [Mpfr_fold] — the semantics gcc uses when it folds a libm call on
      constant arguments at compile time: correctly rounded (real gcc
      folds via MPFR), which disagrees with the runtime library in the
      last ulp on a small fraction of arguments. gcc folds builtins at
      every optimization level, including [-O0].
    - [Llvm_fold] — LLVM's constant folder calls the build machine's
      libm, which can disagree with the runtime library (and with MPFR)
      on its own set of arguments; clang folds once it optimizes
      ([-O1] and above).
    - [Cuda] — the CUDA Math library linked by nvcc: agrees with glibc on
      most arguments, diverges by 1–2 ulps on some (more often on hard
      functions such as pow and tan).
    - [Gcc_fast] / [Clang_fast] — host [-ffast-math] runtimes (vectorized
      math routines with relaxed accuracy); the two compilers ship
      different routines, so their divergence patterns are uncorrelated.
    - [Cuda_fast] — nvcc [-use_fast_math] intrinsics: the {!Poly} kernels
      for the common transcendentals, heavier perturbation elsewhere.

    Divergence probabilities are the model's central calibration knobs;
    they live in {!profiles_doc} and are reported by the benchmark
    harness. *)

type flavor =
  | Glibc
  | Mpfr_fold
  | Llvm_fold
  | Cuda
  | Gcc_fast
  | Clang_fast
  | Cuda_fast

val flavor_name : flavor -> string

val call1 :
  ?precision:Lang.Ast.precision -> flavor -> Lang.Ast.math_fn -> float -> float
(** Evaluate one single-argument math-library call under a vendor
    flavor. [precision] (default FP64) selects the divergence grid:
    single-precision library functions disagree at {e float} ulps, and
    the device fast-math intrinsics ([__sinf] etc.) carry a few
    float-ulps of their own error. Allocates nothing but the boxes of
    its argument and result. Raises [Invalid_argument] when [fn] takes
    two arguments. *)

val call2 :
  ?precision:Lang.Ast.precision ->
  flavor -> Lang.Ast.math_fn -> float -> float -> float
(** {!call1} for a two-argument function. Raises [Invalid_argument]
    when [fn] takes one argument. *)

val call :
  ?precision:Lang.Ast.precision ->
  flavor -> Lang.Ast.math_fn -> float list -> float
(** {!call1} or {!call2} by the length of the argument list. Raises
    [Invalid_argument] on an arity mismatch. *)

val profiles_doc : string
(** One-line-per-flavor description of the divergence model (salt,
    probability, magnitude), for reports and EXPERIMENTS.md. *)
