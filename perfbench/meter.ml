(* Clocks, allocation brackets and order statistics for the benchmark.

   Every timing uses the monotonic clock. Allocation comes from
   [Gc.quick_stat] deltas taken around the measured thunk; the cost of
   the bracket itself (the stat records and the boxed clock reads) is
   calibrated once and subtracted, so a layer's words are its own. *)

let now () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let since t0 = seconds_between t0 (now ())

(* User plus system CPU seconds of this process. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Wall seconds of [f ()] together with its result. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* [f ()] with its wall and CPU seconds. *)
let timed_cpu f =
  let c0 = cpu_seconds () in
  let r, wall = timed f in
  (r, wall, cpu_seconds () -. c0)

let median = function
  | [] -> invalid_arg "Meter.median: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One layer's accumulated cost: calls, busy seconds, and the words and
   major collections its calls caused. *)
type t = {
  mutable calls : int;
  mutable seconds : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_gcs : int;
}

let create () =
  { calls = 0; seconds = 0.0; minor_words = 0.0; major_words = 0.0;
    major_gcs = 0 }

(* Words one empty bracket allocates, measured on first use. *)
let bracket_words =
  lazy
    (let minor = ref 0.0 and major = ref 0.0 in
     let n = 200 in
     for _ = 1 to n do
       let s0 = Gc.quick_stat () in
       let t0 = now () in
       let t1 = now () in
       ignore (Sys.opaque_identity (Int64.sub t1 t0));
       let s1 = Gc.quick_stat () in
       minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
       major := !major +. (s1.Gc.major_words -. s0.Gc.major_words)
     done;
     (!minor /. float_of_int n, !major /. float_of_int n))

(* Run [f] as [calls] calls of the layer [m]. The clock reads sit inside
   the stat reads, so the bracket's own time is not charged. *)
let measure m ?(calls = 1) f =
  let over_minor, over_major = Lazy.force bracket_words in
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let s1 = Gc.quick_stat () in
  m.calls <- m.calls + calls;
  m.seconds <- m.seconds +. seconds_between t0 t1;
  m.minor_words <-
    m.minor_words +. Float.max 0.0 (s1.Gc.minor_words -. s0.Gc.minor_words -. over_minor);
  m.major_words <-
    m.major_words +. Float.max 0.0 (s1.Gc.major_words -. s0.Gc.major_words -. over_major);
  m.major_gcs <-
    m.major_gcs + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

let per_call m v = if m.calls = 0 then 0.0 else v /. float_of_int m.calls

let us_per_call m = per_call m (m.seconds *. 1e6)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)
