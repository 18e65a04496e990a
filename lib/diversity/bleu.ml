let max_order = 4

type table = {
  toks : string array;
  (* per order (index 0 = unigrams), the n-grams by start position in
     [toks]; column 0 plain, column 1 weighted *)
  orders : int Multiset.t array;
}

(* Order of the n-grams at [p] in [a] and [q] in [b], token by token
   from offset [k]. *)
let rec compare_from n a b p q k =
  if k = n then 0
  else
    let c = String.compare a.(p + k) b.(q + k) in
    if c <> 0 then c else compare_from n a b p q (k + 1)

let compare_grams n a b p q = compare_from n a b p q 0

let table ?(weight = fun _ -> 1.0) tokens =
  let toks = Array.of_list tokens in
  let len = Array.length toks in
  (* Per start position, the hash and the weight (max token weight, at
     least 1) of the n-gram of the order being built, extended by one
     token per order. *)
  let hash = Array.make len 0 and wmax = Array.make len 1.0 in
  let orders =
    Array.init max_order (fun k ->
        let count = max 0 (len - k) in
        for pos = 0 to count - 1 do
          let t = toks.(pos + k) in
          hash.(pos) <- (hash.(pos) * 31) + Hashtbl.hash t;
          wmax.(pos) <- Float.max wmax.(pos) (weight t)
        done;
        Multiset.build
          ~hash:(fun pos -> hash.(pos))
          ~compare:(compare_grams (k + 1) toks toks)
          ~weights:[| (fun _ -> 1.0); (fun pos -> wmax.(pos)) |]
          (Array.init count Fun.id))
  in
  { toks; orders }

let length t = Array.length t.toks

type matched = float array array

let matched a b =
  Array.init max_order (fun k ->
      Multiset.matched
        ~compare:(compare_grams (k + 1) a.toks b.toks)
        a.orders.(k) b.orders.(k))

let score ?(weighted = false) ~candidate ~reference m =
  let col = if weighted then 1 else 0 in
  let cand_len = length candidate and ref_len = length reference in
  if cand_len = 0 then if ref_len = 0 then 1.0 else 0.0
  else begin
    let log_sum = ref 0.0 in
    for k = 0 to max_order - 1 do
      let total = Multiset.total candidate.orders.(k) col in
      let precision =
        if total <= 0.0 then 1.0 (* candidate shorter than the order *)
        else Float.max (m.(k).(col) /. total) 1e-9
      in
      log_sum := !log_sum +. log precision
    done;
    let geo = exp (!log_sum /. float_of_int max_order) in
    let bp =
      if cand_len >= ref_len then 1.0
      else exp (1.0 -. (float_of_int ref_len /. float_of_int cand_len))
    in
    geo *. bp
  end
