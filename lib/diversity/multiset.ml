type 'k t = {
  hashes : int array;
  keys : 'k array;  (* distinct, ascending by (hash, key) *)
  counts : float array array;  (* columns, parallel to [keys] *)
  totals : float array;
}

(* Sorting packs (hash, occurrence index) into one non-negative int, so
   the sort compares ints only; keys are compared only within runs of
   equal hashes. [mix] spreads a hash over the high [hash_bits] bits
   (Fibonacci hashing), which the bucket pass of [sort_packed] reads. *)
let index_bits = 20
let index_mask = (1 lsl index_bits) - 1
let hash_bits = Sys.int_size - 1 - index_bits
let mix h = (h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - hash_bits)

(* Ascending sort of packed values below [2^(Sys.int_size - 1)]: scatter
   into about [n] buckets by the top bits, then one insertion-sort pass,
   which only has to undo the few inversions left inside each bucket. *)
let sort_packed a =
  let n = Array.length a in
  let bits = ref 0 in
  while 1 lsl !bits < n do incr bits done;
  let shift = Sys.int_size - 1 - !bits in
  let start = Array.make ((1 lsl !bits) + 1) 0 in
  Array.iter
    (fun x ->
      let b = (x lsr shift) + 1 in
      start.(b) <- start.(b) + 1)
    a;
  for b = 1 to 1 lsl !bits do start.(b) <- start.(b) + start.(b - 1) done;
  let out = Array.make n 0 in
  Array.iter
    (fun x ->
      let b = x lsr shift in
      out.(start.(b)) <- x;
      start.(b) <- start.(b) + 1)
    a;
  for i = 1 to n - 1 do
    let x = out.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && out.(!j) > x do
      out.(!j + 1) <- out.(!j);
      decr j
    done;
    out.(!j + 1) <- x
  done;
  out

let build ~hash ~compare ~weights keys =
  let n = Array.length keys in
  if n > index_mask then invalid_arg "Multiset.build: too many keys";
  let order =
    sort_packed
      (Array.mapi (fun i k -> (mix (hash k) lsl index_bits) lor i) keys)
  in
  let hash_at r = order.(r) lsr index_bits in
  let key_at r = keys.(order.(r) land index_mask) in
  (* [first] marks the rank of each distinct key's first occurrence. *)
  let first = Bytes.make n '\000' in
  let lo = ref 0 in
  while !lo < n do
    let hi = ref (!lo + 1) in
    while !hi < n && hash_at !hi = hash_at !lo do incr hi done;
    Bytes.set first !lo '\001';
    (* A run of equal hashes is almost always one repeated key; order it
       by key only when it is not. *)
    let mixed = ref false in
    for r = !lo + 1 to !hi - 1 do
      if (not !mixed) && compare (key_at !lo) (key_at r) <> 0 then
        mixed := true
    done;
    if !mixed then begin
      let run = Array.sub order !lo (!hi - !lo) in
      Array.stable_sort
        (fun x y -> compare keys.(x land index_mask) keys.(y land index_mask))
        run;
      Array.blit run 0 order !lo (Array.length run);
      for r = !lo + 1 to !hi - 1 do
        if compare (key_at (r - 1)) (key_at r) <> 0 then
          Bytes.set first r '\001'
      done
    end;
    lo := !hi
  done;
  let distinct = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr distinct) first;
  let d = !distinct in
  let hashes = Array.make d 0 in
  let out = if d = 0 then [||] else Array.make d (key_at 0) in
  let counts = Array.map (fun _ -> Array.make d 0.0) weights in
  let s = ref (-1) in
  for r = 0 to n - 1 do
    if Bytes.get first r = '\001' then begin
      incr s;
      hashes.(!s) <- hash_at r;
      out.(!s) <- key_at r
    end;
    let k = key_at r in
    Array.iteri (fun c w -> counts.(c).(!s) <- counts.(c).(!s) +. w k) weights
  done;
  {
    hashes;
    keys = out;
    counts;
    totals = Array.map (Array.fold_left ( +. ) 0.0) counts;
  }

let total t c = t.totals.(c)

let matched ~compare a b =
  let sums = Array.make (Array.length a.counts) 0.0 in
  let na = Array.length a.keys and nb = Array.length b.keys in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let c = Int.compare a.hashes.(!i) b.hashes.(!j) in
    let c = if c <> 0 then c else compare a.keys.(!i) b.keys.(!j) in
    if c < 0 then incr i
    else if c > 0 then incr j
    else begin
      for k = 0 to Array.length sums - 1 do
        sums.(k) <- sums.(k) +. Float.min a.counts.(k).(!i) b.counts.(k).(!j)
      done;
      incr i;
      incr j
    end
  done;
  sums
