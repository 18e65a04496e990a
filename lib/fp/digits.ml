type error = Non_finite of float | Malformed of string

let error_to_string = function
  | Non_finite x -> Printf.sprintf "Digits.decompose: non-finite input %h" x
  | Malformed s ->
      Printf.sprintf "Digits.decompose: malformed scientific rendering %S" s

let decompose_result x =
  if not (Float.is_finite x) then Error (Non_finite x)
  else
    let s = Printf.sprintf "%.15e" (Float.abs x) in
    (* Format: d.ddddddddddddddde[+-]XX *)
    match String.index_opt s 'e' with
    | None -> Error (Malformed s)
    | Some epos -> (
        let mantissa = String.sub s 0 epos in
        let exp_s = String.sub s (epos + 1) (String.length s - epos - 1) in
        match int_of_string_opt exp_s with
        | None -> Error (Malformed s)
        | Some exponent ->
            let digits =
              String.to_seq mantissa
              |> Seq.filter (fun c -> c <> '.')
              |> String.of_seq
            in
            if
              String.length digits <> 16
              || not (String.for_all (fun c -> c >= '0' && c <= '9') digits)
            then Error (Malformed s)
            else Ok (Float.sign_bit x, digits, if x = 0.0 then 0 else exponent))

let decompose x =
  match decompose_result x with
  | Ok v -> v
  | Error e -> invalid_arg (error_to_string e)

let diff_count a b =
  if Int64.bits_of_float a = Int64.bits_of_float b then 0
  else if not (Float.is_finite a && Float.is_finite b) then 16
  else
    let na, da, ea = decompose a in
    let nb, db, eb = decompose b in
    if na <> nb || ea <> eb then 16
    else begin
      let count = ref 0 in
      String.iteri (fun i c -> if c <> db.[i] then incr count) da;
      (* Bit patterns differ but all printed digits agree: the divergence
         is below 16 decimal digits; charge the minimum of one digit. *)
      if !count = 0 then 1 else !count
    end

module Acc = struct
  type t = { n : int; min_ : int; max_ : int; sum : int }

  let empty = { n = 0; min_ = 0; max_ = 0; sum = 0 }

  let add t d =
    if t.n = 0 then { n = 1; min_ = d; max_ = d; sum = d }
    else
      { n = t.n + 1;
        min_ = Stdlib.min t.min_ d;
        max_ = Stdlib.max t.max_ d;
        sum = t.sum + d }

  let count t = t.n

  let min t =
    if t.n = 0 then invalid_arg "Digits.Acc.min: empty" else t.min_

  let max t =
    if t.n = 0 then invalid_arg "Digits.Acc.max: empty" else t.max_

  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

  let raw t = (t.n, t.min_, t.max_, t.sum)
  let of_raw (n, min_, max_, sum) = { n; min_; max_; sum }

  let to_string t =
    if t.n = 0 then "-"
    else Printf.sprintf "(%d/%d/%.2f)" t.min_ t.max_ (mean t)
end
