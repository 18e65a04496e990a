type t = {
  mutable state : int64;
  mutable spare : float option;
      (* the unreturned half of the last Box–Muller pair *)
}

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed; spare = None }
let of_int seed = create (Int64.of_int seed)
let copy t = { state = t.state; spare = t.spare }
let state t = (t.state, t.spare)

let set_state t (state, spare) =
  t.state <- state;
  t.spare <- spare

(* Finalization mix from SplitMix64: two xor-shift-multiply rounds. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  (* A distinct mixing constant keeps the child stream decorrelated. *)
  { state = mix64 (Int64.logxor s 0xD1B54A32D192ED03L); spare = None }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 t) mask) in
  v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits in the mantissa give a uniform float in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float bits *. 0x1.0p-53 in
  unit *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

(* Exactly one uniform draw regardless of [p]: probability schedules
   that reach a boundary value (0 or 1) must not desync replay streams.
   The comparison itself clamps — [u < 0.] is never true and [u < 1.]
   always is, since [u] is uniform in [0,1). *)
let chance t p = float t 1.0 < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let weighted t items =
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 items in
  if total <= 0.0 then invalid_arg "Rng.weighted: weights must sum to > 0";
  let target = float t total in
  let n = Array.length items in
  let rec go i acc =
    if i = n - 1 then snd items.(i)
    else
      let w, x = items.(i) in
      let acc = acc +. w in
      if target < acc then x else go (i + 1) acc
  in
  go 0 0.0

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t xs k =
  let arr = Array.of_list xs in
  shuffle t arr;
  let k = min k (Array.length arr) in
  Array.to_list (Array.sub arr 0 k)

let gaussian t =
  (* Box–Muller yields two deviates per pair of uniforms; return the
     cosine half now and bank the sine half for the next call, halving
     the transcendental work. *)
  match t.spare with
  | Some z ->
    t.spare <- None;
    z
  | None ->
    let rec nonzero () =
      let u = float t 1.0 in
      if u = 0.0 then nonzero () else u
    in
    let u1 = nonzero () in
    let u2 = float t 1.0 in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    t.spare <- Some (r *. sin theta);
    r *. cos theta
