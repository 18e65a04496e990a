(** Deterministic last-ulp divergence between math-library vendors.

    Different libms agree to within an ulp or two on transcendental
    functions but round differently on a fraction of arguments; this is
    the root cause of the paper's host-vs-device inconsistencies at every
    optimization level. We model it as a pure function of
    (salt, function, argument bits): a keyed hash decides, per call site
    value, whether this vendor's result deviates from the baseline and by
    how many ulps. The same vendor always returns the same value for the
    same arguments (libraries are deterministic), and different salts give
    uncorrelated divergence patterns (different libraries disagree on
    different arguments). *)

type profile = {
  salt : int64;       (** vendor identity *)
  prob : float;       (** probability a given argument diverges *)
  max_ulps : int;     (** largest divergence magnitude, >= 1 *)
}

val profile : salt:int64 -> prob:float -> max_ulps:int -> profile

type grid = F64 | F32

val apply1 :
  ?grid:grid -> profile -> Lang.Ast.math_fn -> float -> float -> float
(** [apply1 p fn x base] nudges [base], the baseline value of [fn x],
    according to the profile, on the binary64 grid by default or the
    binary32 grid for single-precision library calls. Exactly rounded
    functions ({!Reference.is_exactly_rounded}), non-finite bases, and
    zero bases are returned unchanged. Allocates nothing beyond the
    nudged result. *)

val apply2 :
  ?grid:grid -> profile -> Lang.Ast.math_fn -> float -> float -> float ->
  float
(** [apply2 p fn x y base]: {!apply1} for a two-argument function. *)
