(** Reference math library: the list-based implementation that
    {!Mathlib.Libm} replaced with allocation-free direct calls — an
    argument list per call, the fast-math min/max lowering as an option,
    a perturbation hash folded over the argument list through an [Int64]
    ref, a linear scan for the function's tag, and polynomial kernels
    that rebuild their coefficient arrays on every call. Kept only as
    an oracle: the two must agree bit for bit on every flavor, function,
    precision and argument. *)

val call :
  ?precision:Lang.Ast.precision ->
  Mathlib.Libm.flavor -> Lang.Ast.math_fn -> float list -> float
(** One math-library call, computed the list-based way. Raises
    [Invalid_argument] on an arity mismatch. *)

val edges : float array
(** The arguments the kernels branch on: signed zeros and infinities,
    NaNs of both signs, subnormals, the |x| > 1e15 cut where the fast
    reduction gives up, exp2's overflow and underflow thresholds, and
    zero or negative pow bases. *)

val agrees : float -> float -> bool
(** [agrees x y]: for every flavor, function and precision,
    {!Mathlib.Libm.call1} (on [x]) or {!Mathlib.Libm.call2} (on [x, y])
    returns the reference's bits, and {!Mathlib.Libm.call} matches the
    reference at every arity, rejecting the wrong ones alike. *)
