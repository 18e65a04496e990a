(* The repository benchmark.

     main.exe --workload campaign|tables|archive --seed N --seconds S
              --trace 0|1

   Untraced (--trace 0): set the workload up several times, run rounds
   for S seconds, check the outputs, and print the end-to-end metrics.
   Traced (--trace 1): run the first rounds untraced and again with the
   library's existing spans on, then replay the workload's inputs through
   every layer and print the per-layer ledger.

   The last line of standard output is the result object; the line
   before it is a detail object with the digests, checks and parameters.
   Everything runs in this process, on one domain, with jobs = 1. *)

let default_seed = 20250704
let setup_passes = 5
let min_rounds = 3
let traced_rounds = min_rounds

module J = Obs.Json

let metric value unit = J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]

let rounds_for w ~seconds =
  let t0 = Meter.now () in
  let rec go k acc =
    let acc = w.Workloads.round k :: acc in
    if k + 1 >= min_rounds && Meter.since t0 >= seconds then List.rev acc
    else go (k + 1) acc
  in
  go 0 []

(* Rounds on the same input set must agree; a round that disagrees with
   the first on its inputs counts all its operations as failed. *)
let tally rounds =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun (attempted, failed) (r : Workloads.round) ->
      let agrees =
        match Hashtbl.find_opt seen r.input with
        | Some d -> d = r.digest
        | None -> Hashtbl.add seen r.input r.digest; true
      in
      (attempted + r.ops, failed + if agrees then r.failed else r.ops))
    (0, 0) rounds

(* The output digest: the rounds every run completes. *)
let output_digest rounds =
  Workloads.hex_digest
    (List.filteri (fun i _ -> i < min_rounds)
       (List.map (fun (r : Workloads.round) -> r.digest) rounds))

let sum f rounds = List.fold_left (fun acc r -> acc +. f r) 0.0 rounds
let total_seconds = sum (fun (r : Workloads.round) -> r.seconds)
let total_cpu_seconds = sum (fun (r : Workloads.round) -> r.cpu_seconds)

(* Work per second over the whole run: the ratio of sums, so a heavy
   input weighs by its size. *)
let per_s ?(clock = total_seconds) f rounds =
  sum (fun r -> float_of_int (f r)) rounds /. clock rounds

let checks_json checks =
  J.List
    (List.map
       (fun (name, attempted, failed) ->
         J.Obj [ ("name", J.String name); ("attempted", J.Int attempted); ("failed", J.Int failed) ])
       checks)

let print_result ~attempted ~failed metrics =
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int attempted);
            ("failed", J.Int failed); ("metrics", J.Obj metrics) ]))

let untraced (w : Workloads.t) ~seed ~seconds ~setup_s =
  let rounds = rounds_for w ~seconds in
  let attempted, failed = tally rounds in
  let checks = w.check () in
  let failed = List.fold_left (fun acc (_, _, f) -> acc + f) failed checks in
  let items (r : Workloads.round) = r.items in
  let rates = List.map (fun (r : Workloads.round) -> float_of_int r.items /. r.seconds) rounds in
  let peak = Meter.peak_heap_mb () in
  print_endline
    (J.to_string
       (J.Obj
          [ ( "detail",
              J.Obj
                [ ("workload", J.String w.name); ("seed", J.Int seed); ("jobs", J.Int 1);
                  ("ocaml_version", J.String Sys.ocaml_version);
                  ("engine", J.String (Compiler.Driver.engine_name (Compiler.Driver.engine ())));
                  ("params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) w.params));
                  ("item", J.String w.item);
                  ("setup_s", J.List (List.map (fun s -> J.Float s) setup_s));
                  ("round_s", J.List (List.map (fun (r : Workloads.round) -> J.Float r.seconds) rounds));
                  ("round_cpu_s", J.List (List.map (fun (r : Workloads.round) -> J.Float r.cpu_seconds) rounds));
                  ("round_items", J.List (List.map (fun (r : Workloads.round) -> J.Int r.items) rounds));
                  ("items_per_s", J.Float (per_s items rounds));
                  ("median_round_items_per_s", J.Float (Meter.median rates));
                  ("slots_per_s", J.Float (per_s (fun (r : Workloads.round) -> r.slots) rounds));
                  ("incons_per_s", J.Float (per_s (fun (r : Workloads.round) -> r.incons) rounds));
                  ("digest", J.String (output_digest rounds));
                  ("checks", checks_json checks);
                  ("failed_share", J.Float (Ledger.ratio failed attempted)) ] ) ]));
  print_result ~attempted ~failed
    [ ("setup_s", metric (Meter.median setup_s) "s");
      ("items_per_cpu_s", metric (per_s ~clock:total_cpu_seconds items rounds) "1/s");
      ("peak_heap_mb", metric peak "MB") ]

let traced (w : Workloads.t) ~seed ~workdir =
  (* Each input set runs untraced, then again with the library's spans
     on, back to back, so host drift between the two stays small. *)
  let spanned k =
    Obs.Span.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) (fun () -> w.round k)
  in
  let before = Obs.Metrics.snapshot () in
  let r0 = w.round 0 in
  let after = Obs.Metrics.snapshot () in
  Obs.Span.reset ();
  let pairs = (r0, spanned 0) :: List.init (traced_rounds - 1) (fun k -> (w.round (k + 1), spanned (k + 1))) in
  let plain = List.map fst pairs and spanned = List.map snd pairs in
  let attempted, failed = tally (plain @ spanned) in
  Util.Durable.mkdir_p workdir;
  let layers, replay_failed =
    Ledger.replay ~seed ~workdir ~outcomes:(w.outcomes ()) ~suite:(w.suite ())
  in
  Ledger.set_round_calls layers
    ~delta:(Ledger.counter_delta before after)
    ~round_outcomes:(w.round_outcomes ()) ~static:(w.static_calls ());
  let failed = failed + replay_failed in
  (* Spans on and off ran the same inputs, so their difference is the
     cost of the library's existing tracing. *)
  let plain_s = total_seconds plain and spanned_s = total_seconds spanned in
  let overhead = (spanned_s -. plain_s) /. float_of_int traced_rounds in
  let unattributed = 1.0 -. (Ledger.attributed_seconds layers /. r0.seconds) in
  let layer_metrics (l : Ledger.layer) =
    let mt = l.meter in
    [ ("calls", metric (float_of_int l.round_calls) "count");
      ("us_per_call", metric (Meter.us_per_call mt) "us");
      ("minor_words_per_call", metric (Meter.per_call mt mt.minor_words) "words");
      ("major_words_per_call", metric (Meter.per_call mt mt.major_words) "words");
      ("major_gcs", metric (float_of_int mt.major_gcs) "count") ]
    @ List.map (fun (k, u, v) -> (k, metric v u)) l.extras
    |> List.map (fun (k, v) -> (l.name ^ "." ^ k, v))
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ( "detail",
              J.Obj
                [ ("workload", J.String w.name); ("seed", J.Int seed); ("jobs", J.Int 1);
                  ("ocaml_version", J.String Sys.ocaml_version);
                  ("replayed_calls",
                   J.Obj (List.map (fun (l : Ledger.layer) -> (l.name, J.Int l.meter.calls)) layers));
                  ("digest", J.String (output_digest plain));
                  ("span_tree", J.String (Obs.Span.render_tree ())) ] ) ]));
  print_result ~attempted ~failed
    (List.concat_map layer_metrics layers
    @ [ ("workload.round_s", metric r0.seconds "s");
        ("workload.trace_overhead_s", metric overhead "s");
        ("workload.trace_overhead_share", metric (spanned_s /. plain_s -. 1.0) "ratio");
        ("workload.unattributed_share", metric unattributed "ratio");
        ("workload.failed_share", metric (Ledger.ratio failed attempted) "ratio") ])

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30.0 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME campaign | tables | archive");
      ("--seed", Arg.Set_int seed, "N workload seed (default 20250704)");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer ledger") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let root = Filename.concat (Sys.getcwd ()) ".perfbench-work" in
  let workdir = Filename.concat root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  match Workloads.make !workload ~seed:!seed ~workdir with
  | None ->
    Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
      (String.concat ", " Workloads.names);
    exit 2
  | Some w ->
    Fun.protect
      ~finally:(fun () ->
        Workloads.rm_rf workdir;
        try Unix.rmdir root with Unix.Unix_error _ -> ())
      (fun () ->
        let passes = if !trace = 1 then 1 else setup_passes in
        let setup_s = List.init passes (fun i -> snd (Meter.timed (fun () -> w.setup i))) in
        if !trace = 1 then traced w ~seed:!seed ~workdir
        else untraced w ~seed:!seed ~seconds:!seconds ~setup_s)
