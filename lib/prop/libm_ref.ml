open Lang

(* ---- perturbation: the keyed hash folded over the argument list ---- *)

type profile = { salt : int64; prob : float; max_ulps : int }

let profile ~salt ~prob ~max_ulps = { salt; prob; max_ulps }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fn_tag fn =
  let rec index i =
    if Ast.all_math_fns.(i) == fn || Ast.all_math_fns.(i) = fn then i
    else index (i + 1)
  in
  Int64.of_int (index 0)

let key profile fn args =
  let h = ref (mix profile.salt) in
  h := mix (Int64.add !h (fn_tag fn));
  List.iter (fun a -> h := mix (Int64.logxor !h (Int64.bits_of_float a))) args;
  !h

let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1.0p-53

type grid = F64 | F32

let apply ?(grid = F64) profile fn args base =
  if Mathlib.Reference.is_exactly_rounded fn then base
  else if (not (Float.is_finite base)) || base = 0.0 then base
  else
    let h = key profile fn args in
    if unit_float h >= profile.prob then base
    else
      let h2 = mix h in
      let magnitude = 1 + Int64.to_int (Int64.rem (Int64.shift_right_logical h2 2) (Int64.of_int profile.max_ulps)) in
      let direction = if Int64.logand h2 1L = 0L then magnitude else -magnitude in
      match grid with
      | F64 -> Fp.Bits.nudge_ulps base direction
      | F32 -> Fp.Bits.nudge_ulps32 base direction

(* ---- polynomial kernels, coefficient arrays built per call ---- *)

let dp1 = 1.5707963267341256e0
let dp2 = 6.077100506506192e-11

let poly coeffs x =
  Array.fold_left (fun acc c -> (acc *. x) +. c) 0.0 coeffs

let sin_kernel r =
  let r2 = r *. r in
  r
  *. poly
       [| -2.505210838544172e-8; 2.7557319223985893e-6;
          -1.984126984126984e-4; 8.333333333333333e-3;
          -0.16666666666666666; 1.0 |]
       r2

let cos_kernel r =
  let r2 = r *. r in
  poly
    [| -2.7557319223985888e-7; 2.48015873015873e-5; -1.3888888888888889e-3;
       4.1666666666666664e-2; -0.5; 1.0 |]
    r2

let reduce x =
  let k = Float.round (x /. 1.5707963267948966) in
  let r = x -. (k *. dp1) -. (k *. dp2) in
  let q = Int64.to_int (Int64.rem (Int64.of_float k) 4L) in
  let q = if q < 0 then q + 4 else q in
  (q, r)

let sin_fast x =
  if not (Float.is_finite x) then Float.nan
  else if Float.abs x > 1e15 then 0.0
  else
    let q, r = reduce x in
    match q with
    | 0 -> sin_kernel r
    | 1 -> cos_kernel r
    | 2 -> -.sin_kernel r
    | _ -> -.cos_kernel r

let cos_fast x =
  if not (Float.is_finite x) then Float.nan
  else if Float.abs x > 1e15 then 1.0
  else
    let q, r = reduce x in
    match q with
    | 0 -> cos_kernel r
    | 1 -> -.sin_kernel r
    | 2 -> -.cos_kernel r
    | _ -> sin_kernel r

let tan_fast x =
  let s = sin_fast x and c = cos_fast x in
  s /. c

let log2_e = 1.4426950408889634

let exp2_kernel f =
  let ln2 = 0.6931471805599453 in
  let t = f *. ln2 in
  poly
    [| 2.505210838544172e-8; 2.7557319223985893e-6; 2.48015873015873e-5;
       1.984126984126984e-4; 1.3888888888888889e-3; 8.333333333333333e-3;
       4.1666666666666664e-2; 0.16666666666666666; 0.5; 1.0; 1.0 |]
    t

let exp2_fast x =
  if Float.is_nan x then Float.nan
  else if x > 1024.0 then Float.infinity
  else if x < -1075.0 then 0.0
  else
    let k = Float.round x in
    let f = x -. k in
    ldexp (exp2_kernel f) (int_of_float k)

let exp_fast x = exp2_fast (x *. log2_e)

let log2_kernel m =
  let t = (m -. 1.0) /. (m +. 1.0) in
  let t2 = t *. t in
  let atanh_t =
    t
    *. poly
         [| 1.0 /. 13.0; 1.0 /. 11.0; 1.0 /. 9.0; 1.0 /. 7.0; 0.2;
            1.0 /. 3.0; 1.0 |]
         t2
  in
  2.0 *. atanh_t *. log2_e

let log2_fast x =
  if Float.is_nan x then Float.nan
  else if x < 0.0 then Float.nan
  else if x = 0.0 then Float.neg_infinity
  else if x = Float.infinity then Float.infinity
  else
    let m, e = Float.frexp x in
    let m = m *. 2.0 and e = e - 1 in
    float_of_int e +. log2_kernel m

let ln2 = 0.6931471805599453
let log_fast x = log2_fast x *. ln2
let log10_fast x = log2_fast x *. 0.30102999566398120

let pow_fast x y =
  if y = 0.0 then 1.0
  else if x = 1.0 then 1.0
  else if x < 0.0 then Float.nan
  else if x = 0.0 then if y > 0.0 then 0.0 else Float.infinity
  else exp2_fast (y *. log2_fast x)

(* ---- vendor dispatch ---- *)

let mpfr_profile = profile ~salt:0x6D70667231L ~prob:0.04 ~max_ulps:1
let llvm_fold_profile = profile ~salt:0x6C6C766DL ~prob:0.04 ~max_ulps:1
let cuda_profile = profile ~salt:0x63756461L ~prob:0.5 ~max_ulps:1
let cuda_hard_profile = profile ~salt:0x63756461FFL ~prob:0.65 ~max_ulps:2
let gcc_fast_profile = profile ~salt:0x676363L ~prob:0.10 ~max_ulps:2
let clang_fast_profile = profile ~salt:0x636C616E67L ~prob:0.10 ~max_ulps:2
let cuda_fast_other_profile = profile ~salt:0x637564616646L ~prob:0.30 ~max_ulps:4
let cuda_fast32_profile = profile ~salt:0x5F5F66L ~prob:0.6 ~max_ulps:3

let is_hard = function
  | Ast.Pow | Ast.Tan | Ast.Sinh | Ast.Cosh | Ast.Expm1 | Ast.Log1p
  | Ast.Hypot | Ast.Atan2 ->
    true
  | _ -> false

let fast_minmax (flavor : Mathlib.Libm.flavor) fn args =
  match (flavor, fn, args) with
  | Gcc_fast, Ast.Fmin, [ a; b ] -> Some (if a < b then a else b)
  | Gcc_fast, Ast.Fmax, [ a; b ] -> Some (if a > b then a else b)
  | Clang_fast, Ast.Fmin, [ a; b ] -> Some (if b < a then b else a)
  | Clang_fast, Ast.Fmax, [ a; b ] -> Some (if b > a then b else a)
  | _ -> None

let call ?(precision = Ast.F64) (flavor : Mathlib.Libm.flavor) fn args =
  let grid = match precision with Ast.F64 -> F64 | Ast.F32 -> F32 in
  match fast_minmax flavor fn args with
  | Some v -> v
  | None ->
  let base = Mathlib.Reference.eval fn args in
  match flavor with
  | Glibc -> base
  | Mpfr_fold -> apply ~grid mpfr_profile fn args base
  | Llvm_fold -> apply ~grid llvm_fold_profile fn args base
  | Cuda ->
    let p = if is_hard fn then cuda_hard_profile else cuda_profile in
    apply ~grid p fn args base
  | Gcc_fast -> apply ~grid gcc_fast_profile fn args base
  | Clang_fast -> apply ~grid clang_fast_profile fn args base
  | Cuda_fast -> begin
    let polynomial =
      match (fn, args) with
      | Ast.Sin, [ x ] -> Some (sin_fast x)
      | Ast.Cos, [ x ] -> Some (cos_fast x)
      | Ast.Tan, [ x ] -> Some (tan_fast x)
      | Ast.Exp, [ x ] -> Some (exp_fast x)
      | Ast.Exp2, [ x ] -> Some (exp2_fast x)
      | Ast.Log, [ x ] -> Some (log_fast x)
      | Ast.Log2, [ x ] -> Some (log2_fast x)
      | Ast.Log10, [ x ] -> Some (log10_fast x)
      | Ast.Pow, [ x; y ] -> Some (pow_fast x y)
      | _ -> None
    in
    match (polynomial, precision) with
    | Some v, Ast.F64 -> v
    | Some v, Ast.F32 -> apply ~grid cuda_fast32_profile fn args v
    | None, _ -> apply ~grid cuda_fast_other_profile fn args base
  end

(* ---- agreement with Mathlib.Libm ---- *)

let edges =
  [| 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan;
     -.Float.nan; 4.9e-324; -4.9e-324; 0x0.fffffffffffffp-1022; 1e-310;
     0x1p-1022; 1.0; -1.0; 2.0; -2.0; 0.5; -0.5; 3.0; 1e15; -1e15;
     1.0000000000000002e15; 1e16; -3e20; 1e300; 1.5707963267948966;
     3.141592653589793; 710.0; -745.0; 1024.0; 1025.0; -1075.0; -1076.0 |]

let flavors =
  Mathlib.Libm.
    [ Glibc; Mpfr_fold; Llvm_fold; Cuda; Gcc_fast; Clang_fast; Cuda_fast ]

(* The result's bits, or [None] when the call rejects its arity. *)
let outcome f =
  match f () with
  | v -> Some (Int64.bits_of_float v)
  | exception Invalid_argument _ -> None

(* One (precision, flavor, function) cell: the direct entry point of
   the function's arity, and the list dispatcher at every arity (the
   wrong ones must be rejected alike), against the reference. *)
let cell_agrees ~precision flavor fn x y =
  let unary = Ast.math_fn_arity fn = 1 in
  let reference args () = call ~precision flavor fn args in
  let want = outcome (reference (if unary then [ x ] else [ x; y ])) in
  let direct () =
    if unary then Mathlib.Libm.call1 ~precision flavor fn x
    else Mathlib.Libm.call2 ~precision flavor fn x y
  in
  want <> None
  && outcome direct = want
  && List.for_all
       (fun args ->
         outcome (fun () -> Mathlib.Libm.call ~precision flavor fn args)
         = outcome (reference args))
       [ []; [ x ]; [ x; y ]; [ x; y; x ] ]

let agrees x y =
  List.for_all
    (fun precision ->
      List.for_all
        (fun flavor ->
          Array.for_all
            (fun fn -> cell_agrees ~precision flavor fn x y)
            Ast.all_math_fns)
        flavors)
    [ Ast.F64; Ast.F32 ]
