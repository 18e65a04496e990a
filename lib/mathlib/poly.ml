(* Cody–Waite two-constant split of pi/2: pi/2 = dp1 + dp2 with dp1 having
   trailing zero bits, so k*dp1 subtracts exactly for moderate k. *)
let dp1 = 1.5707963267341256e0 (* high part of pi/2 *)
let dp2 = 6.077100506506192e-11 (* low part *)

(* Horner's rule, highest coefficient first. Inlined into each kernel,
   so the accumulator stays unboxed. *)
let[@inline] poly coeffs x =
  let acc = ref 0.0 in
  for i = 0 to Array.length coeffs - 1 do
    acc := (!acc *. x) +. Array.unsafe_get coeffs i
  done;
  !acc

(* Truncated Taylor kernels on |r| <= pi/4; the missing higher terms are
   exactly the fast-math accuracy loss. *)
let sin_coeffs =
  [| -2.505210838544172e-8; 2.7557319223985893e-6; -1.984126984126984e-4;
     8.333333333333333e-3; -0.16666666666666666; 1.0 |]

let cos_coeffs =
  [| -2.7557319223985888e-7; 2.48015873015873e-5; -1.3888888888888889e-3;
     4.1666666666666664e-2; -0.5; 1.0 |]

let[@inline] sin_kernel r = r *. poly sin_coeffs (r *. r)
let[@inline] cos_kernel r = poly cos_coeffs (r *. r)

(* x = k * pi/2 + r, r in [-pi/4, pi/4], with k's quadrant reduced
   mod 4. *)
let[@inline] quarter_turns x = Float.round (x /. 1.5707963267948966)
let[@inline] reduced x k = x -. (k *. dp1) -. (k *. dp2)

let[@inline] quadrant k =
  let q = Int64.to_int (Int64.rem (Int64.of_float k) 4L) in
  if q < 0 then q + 4 else q

let sin_fast x =
  if not (Float.is_finite x) then Float.nan
  else if Float.abs x > 1e15 then 0.0 (* fast reduction gives up *)
  else
    let k = quarter_turns x in
    let r = reduced x k in
    match quadrant k with
    | 0 -> sin_kernel r
    | 1 -> cos_kernel r
    | 2 -> -.sin_kernel r
    | _ -> -.cos_kernel r

let cos_fast x =
  if not (Float.is_finite x) then Float.nan
  else if Float.abs x > 1e15 then 1.0
  else
    let k = quarter_turns x in
    let r = reduced x k in
    match quadrant k with
    | 0 -> cos_kernel r
    | 1 -> -.sin_kernel r
    | 2 -> -.cos_kernel r
    | _ -> sin_kernel r

let tan_fast x =
  let s = sin_fast x and c = cos_fast x in
  s /. c

let log2_e = 1.4426950408889634
let ln2 = 0.6931471805599453

(* 2^f on f in [-0.5, 0.5], truncated expansion of exp(f ln 2). *)
let exp2_coeffs =
  [| 2.505210838544172e-8; 2.7557319223985893e-6; 2.48015873015873e-5;
     1.984126984126984e-4; 1.3888888888888889e-3; 8.333333333333333e-3;
     4.1666666666666664e-2; 0.16666666666666666; 0.5; 1.0; 1.0 |]

let exp2_fast x =
  if Float.is_nan x then Float.nan
  else if x > 1024.0 then Float.infinity
  else if x < -1075.0 then 0.0
  else
    let k = Float.round x in
    let f = x -. k in
    ldexp (poly exp2_coeffs (f *. ln2)) (int_of_float k)

let exp_fast x = exp2_fast (x *. log2_e)

(* log2(m) for m in [1, 2) via atanh series: log(m) = 2 atanh((m-1)/(m+1)). *)
let atanh_coeffs =
  [| 1.0 /. 13.0; 1.0 /. 11.0; 1.0 /. 9.0; 1.0 /. 7.0; 0.2; 1.0 /. 3.0; 1.0 |]

let[@inline] log2_kernel m =
  let t = (m -. 1.0) /. (m +. 1.0) in
  let atanh_t = t *. poly atanh_coeffs (t *. t) in
  2.0 *. atanh_t *. log2_e

let log2_fast x =
  if Float.is_nan x then Float.nan
  else if x < 0.0 then Float.nan
  else if x = 0.0 then Float.neg_infinity
  else if x = Float.infinity then Float.infinity
  else
    let bits = Int64.bits_of_float x in
    let biased = Int64.to_int (Int64.shift_right_logical bits 52) in
    if biased = 0 then begin
      (* subnormal: frexp gives m in [0.5, 1); rescale to [1, 2) *)
      let m, e = Float.frexp x in
      float_of_int (e - 1) +. log2_kernel (m *. 2.0)
    end
    else
      (* normal: x = m * 2^(biased - 1023) with m in [1, 2) read straight
         from the mantissa bits, exactly what frexp would give *)
      let m =
        Int64.float_of_bits
          (Int64.logor (Int64.logand bits 0xFFFFFFFFFFFFFL) 0x3FF0000000000000L)
      in
      float_of_int (biased - 1023) +. log2_kernel m

let log_fast x = log2_fast x *. ln2
let log10_fast x = log2_fast x *. 0.30102999566398120

let pow_fast x y =
  if y = 0.0 then 1.0
  else if x = 1.0 then 1.0
  else if x < 0.0 then Float.nan
  else if x = 0.0 then if y > 0.0 then 0.0 else Float.infinity
  else exp2_fast (y *. log2_fast x)
