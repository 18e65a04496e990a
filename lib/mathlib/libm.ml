open Lang

type flavor =
  | Glibc
  | Mpfr_fold
  | Llvm_fold
  | Cuda
  | Gcc_fast
  | Clang_fast
  | Cuda_fast

let flavor_name = function
  | Glibc -> "glibc"
  | Mpfr_fold -> "mpfr-fold"
  | Llvm_fold -> "llvm-fold"
  | Cuda -> "cuda-libm"
  | Gcc_fast -> "gcc-fastmath"
  | Clang_fast -> "clang-fastmath"
  | Cuda_fast -> "cuda-fastmath"

(* Divergence profiles. Probabilities are per (function, argument) and were
   calibrated so campaign-level inconsistency rates land in the paper's
   regime (see EXPERIMENTS.md): real libms agree on the overwhelming
   majority of arguments, so per-call divergence is rare even though
   almost every long-running program eventually observes one. *)

let mpfr_profile = Perturb.profile ~salt:0x6D70667231L ~prob:0.04 ~max_ulps:1
let llvm_fold_profile = Perturb.profile ~salt:0x6C6C766DL ~prob:0.04 ~max_ulps:1
let cuda_profile = Perturb.profile ~salt:0x63756461L ~prob:0.5 ~max_ulps:1

(* pow/tan/hypot-class functions have larger vendor spreads. *)
let cuda_hard_profile = Perturb.profile ~salt:0x63756461FFL ~prob:0.65 ~max_ulps:2

let gcc_fast_profile = Perturb.profile ~salt:0x676363L ~prob:0.10 ~max_ulps:2
let clang_fast_profile = Perturb.profile ~salt:0x636C616E67L ~prob:0.10 ~max_ulps:2
let cuda_fast_other_profile = Perturb.profile ~salt:0x637564616646L ~prob:0.30 ~max_ulps:4

let is_hard = function
  | Ast.Pow | Ast.Tan | Ast.Sinh | Ast.Cosh | Ast.Expm1 | Ast.Log1p
  | Ast.Hypot | Ast.Atan2 ->
    true
  | _ -> false

(* The float intrinsics (__sinf and friends) are a few float-ulps off;
   on the F32 grid the divergence profile is correspondingly coarser. *)
let cuda_fast32_profile = Perturb.profile ~salt:0x5F5F66L ~prob:0.6 ~max_ulps:3

(* The perturbation profile of every flavor but the glibc baseline; for
   [Cuda_fast] it covers the functions without a {!Poly} kernel. *)
let profile flavor fn =
  match flavor with
  | Glibc -> invalid_arg "Libm.profile: glibc is the baseline"
  | Mpfr_fold -> mpfr_profile
  | Llvm_fold -> llvm_fold_profile
  | Cuda -> if is_hard fn then cuda_hard_profile else cuda_profile
  | Gcc_fast -> gcc_fast_profile
  | Clang_fast -> clang_fast_profile
  | Cuda_fast -> cuda_fast_other_profile

(* Static options: passing one to [?grid] allocates nothing. *)
let f64_grid = Some Perturb.F64
let f32_grid = Some Perturb.F32
let grid = function Ast.F64 -> f64_grid | Ast.F32 -> f32_grid

(* A device fast-math kernel's value: exact to the kernel at double
   precision; the __foof intrinsics carry their own float-ulp error. *)
let intrinsic1 precision fn x v =
  match precision with
  | Ast.F64 -> v
  | Ast.F32 -> Perturb.apply1 ?grid:f32_grid cuda_fast32_profile fn x v

let call1 ?(precision = Ast.F64) flavor fn x =
  match (flavor, fn) with
  | Glibc, _ -> Reference.eval1 fn x
  | Cuda_fast, Ast.Sin -> intrinsic1 precision fn x (Poly.sin_fast x)
  | Cuda_fast, Ast.Cos -> intrinsic1 precision fn x (Poly.cos_fast x)
  | Cuda_fast, Ast.Tan -> intrinsic1 precision fn x (Poly.tan_fast x)
  | Cuda_fast, Ast.Exp -> intrinsic1 precision fn x (Poly.exp_fast x)
  | Cuda_fast, Ast.Exp2 -> intrinsic1 precision fn x (Poly.exp2_fast x)
  | Cuda_fast, Ast.Log -> intrinsic1 precision fn x (Poly.log_fast x)
  | Cuda_fast, Ast.Log2 -> intrinsic1 precision fn x (Poly.log2_fast x)
  | Cuda_fast, Ast.Log10 -> intrinsic1 precision fn x (Poly.log10_fast x)
  | _ ->
    Perturb.apply1 ?grid:(grid precision) (profile flavor fn) fn x
      (Reference.eval1 fn x)

(* Fast-math min/max lowering. C's fmin/fmax treat NaN as "missing", but
   under fast math compilers are free to emit a bare compare-and-select.
   gcc selects `a < b ? a : b`, clang the symmetric `b < a ? b : a`, so a
   NaN operand comes out differently per compiler; nvcc's device fast
   path keeps the IEEE number-favoring semantics. *)
let call2 ?(precision = Ast.F64) flavor fn x y =
  match (flavor, fn) with
  | Gcc_fast, Ast.Fmin -> if x < y then x else y
  | Gcc_fast, Ast.Fmax -> if x > y then x else y
  | Clang_fast, Ast.Fmin -> if y < x then y else x
  | Clang_fast, Ast.Fmax -> if y > x then y else x
  | Glibc, _ -> Reference.eval2 fn x y
  | Cuda_fast, Ast.Pow -> (
    let v = Poly.pow_fast x y in
    match precision with
    | Ast.F64 -> v
    | Ast.F32 -> Perturb.apply2 ?grid:f32_grid cuda_fast32_profile fn x y v)
  | _ ->
    Perturb.apply2 ?grid:(grid precision) (profile flavor fn) fn x y
      (Reference.eval2 fn x y)

let call ?precision flavor fn args =
  match args with
  | [ x ] -> call1 ?precision flavor fn x
  | [ x; y ] -> call2 ?precision flavor fn x y
  | _ -> invalid_arg "Libm.call: arity mismatch"

let profiles_doc =
  "glibc: baseline (identity). mpfr-fold: p=0.04, <=1 ulp. llvm-fold: \
   p=0.04, <=1 ulp, distinct salt. cuda-libm: p=0.5 (hard fns 0.65), \
   <=1-2 ulp. gcc/clang-fastmath: p=0.10, <=2 ulp, distinct salts. \
   cuda-fastmath: polynomial kernels for sin/cos/tan/exp/log/pow (~1e-12 \
   rel. err.), p=0.30 <=4 ulp elsewhere."
