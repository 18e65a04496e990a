(* CLI-level tests: drive the real llm4fp binary.

   The tests run from _build/default/test/ with ../bin/llm4fp.exe
   declared as a dep, so the binary is always fresh. Three areas:

   - the archive-less diagnostics: dashboard/explain on a missing or
     empty case archive exit 2 with a one-line hint, distinct from
     exit 1 ("archive exists but something else failed");
   - the golden flight-deck frame: a fixed-seed campaign's trace
     replays ([watch --replay]) to byte-identical output, pinned by
     test/golden/watch_frame.txt;
   - the trace query and flamegraph export round-trips. *)

open Helpers

let exe = Filename.concat ".." (Filename.concat "bin" "llm4fp.exe")

(* Run the binary, capturing stdout/stderr to files; returns
   (exit_code, stdout, stderr). *)
let run args =
  with_tmpdir ~prefix:"llm4fp-cli-io" @@ fun dir ->
  Unix.mkdir dir 0o755;
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
         (Filename.quote out) (Filename.quote err))
  in
  (code, read_file out, read_file err)

let contains = Util.Text.contains_sub

let test_dashboard_missing_archive () =
  with_tmpdir @@ fun dir ->
  let code, _, err = run (Printf.sprintf "dashboard %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "one-line diagnostic" true (contains err "no case archive")

let test_dashboard_empty_archive () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err = run (Printf.sprintf "dashboard %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "names the empty archive" true (contains err "empty")

let test_explain_missing_archive () =
  with_tmpdir @@ fun dir ->
  let code, _, err =
    run (Printf.sprintf "explain --archive %s 0123456789abcdef"
           (Filename.quote dir))
  in
  check_int "exit 2" 2 code;
  check_bool "one-line diagnostic" true (contains err "no case archive")

let test_explain_empty_archive () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err =
    run (Printf.sprintf "explain --archive %s 0123456789abcdef"
           (Filename.quote dir))
  in
  check_int "exit 2" 2 code;
  check_bool "names the empty archive" true (contains err "empty")

(* --max-pairs below 1 would reach the sampler and print NaN as every
   approach's CodeBLEU; the option parser refuses it. *)
let test_tables_max_pairs_zero () =
  let code, out, err = run "tables -b 2 --max-pairs 0" in
  check_bool "nonzero exit" true (code <> 0);
  check_bool "names the option" true (contains err "max-pairs");
  check_bool "prints no table" false (contains out "nan")

(* One fixed-seed trace shared by the replay/query/export tests. *)
let with_campaign_trace f =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let trace = Filename.concat dir "trace.jsonl" in
  let code, _, err =
    run (Printf.sprintf "campaign llm4fp -b 12 -s 42 --trace %s"
           (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("campaign failed: " ^ err);
  f trace

let test_watch_replay_golden_frame () =
  with_campaign_trace @@ fun trace ->
  let code, frame, err =
    run (Printf.sprintf "watch --replay %s" (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("watch --replay failed: " ^ err);
  check_golden "flight-deck frame" ~golden:"golden/watch_frame.txt" frame;
  (* and replaying is idempotent byte for byte *)
  let _, again, _ =
    run (Printf.sprintf "watch --replay %s" (Filename.quote trace))
  in
  check_string "byte-identical on re-replay" frame again

let test_watch_live_finished_trace () =
  (* A live watch attached to an already-finished trace drains it in
     one poll and exits 0 on the campaign_finished event. *)
  with_campaign_trace @@ fun trace ->
  let code, out, err =
    run (Printf.sprintf "watch --interval 0.05 %s" (Filename.quote trace))
  in
  if code <> 0 then Alcotest.fail ("live watch failed: " ^ err);
  check_bool "renders the deck" true (contains out "flight deck");
  (* non-TTY output: no clear-screen escapes *)
  check_bool "no ANSI clears when piped" false (contains out "\027[")

let test_watch_timeout () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err =
    run
      (Printf.sprintf "watch --interval 0.05 --timeout 0.2 %s"
         (Filename.quote (Filename.concat dir "never.jsonl")))
  in
  check_int "exit 3 on timeout" 3 code;
  check_bool "says not finished" true (contains err "not finished")

let test_trace_query () =
  with_campaign_trace @@ fun trace ->
  let code, out, _ =
    run (Printf.sprintf "trace %s --stats" (Filename.quote trace)) in
  check_int "stats exits 0" 0 code;
  check_bool "counts campaign_finished" true (contains out "campaign_finished");
  let code, out, _ =
    run (Printf.sprintf "trace %s --kind slot_finished" (Filename.quote trace))
  in
  check_int "filter exits 0" 0 code;
  let lines = String.split_on_char '\n' (String.trim out) in
  (* header + separator + one row per slot *)
  check_int "one row per slot" 14 (List.length lines);
  check_bool "rows carry the sim clock" true (contains out "sim=");
  let code, csv, _ =
    run
      (Printf.sprintf "trace %s --kind inconsistency_found --slot 1 --csv"
         (Filename.quote trace))
  in
  check_int "csv exits 0" 0 code;
  check_bool "csv header" true (contains csv "#,slot,event,detail");
  (* determinism: the same query twice is byte-identical *)
  let _, csv2, _ =
    run
      (Printf.sprintf "trace %s --kind inconsistency_found --slot 1 --csv"
         (Filename.quote trace))
  in
  check_string "csv deterministic" csv csv2

let test_coverage_query () =
  with_campaign_trace @@ fun trace ->
  let code, out, _ =
    run (Printf.sprintf "coverage %s" (Filename.quote trace)) in
  check_int "coverage exits 0" 0 code;
  check_bool "table header names the cell axes" true
    (contains out "kind" && contains out "classes");
  check_bool "lists a cross cell" true (contains out "cross");
  check_bool "lists first-discovery provenance" true
    (contains out "first slot");
  (* deterministic: the same query twice is byte-identical *)
  let _, again, _ =
    run (Printf.sprintf "coverage %s" (Filename.quote trace)) in
  check_string "table deterministic" out again;
  let code, csv, _ =
    run (Printf.sprintf "coverage %s --csv" (Filename.quote trace)) in
  check_int "csv exits 0" 0 code;
  check_bool "csv header" true
    (contains csv "kind,pair,level,classes,hits,first slot,first sim_s,strategy");
  check_int "one csv row per table row"
    (List.length (String.split_on_char '\n' (String.trim out)) - 1)
    (List.length (String.split_on_char '\n' (String.trim csv)));
  let code, by, _ =
    run (Printf.sprintf "coverage %s --by-strategy" (Filename.quote trace)) in
  check_int "by-strategy exits 0" 0 code;
  check_bool "per-strategy rates" true
    (contains by "novel/sim-s" && contains by "/s");
  (* a missing trace dies in cmdliner's file converter *)
  let code, _, _ =
    run (Printf.sprintf "coverage %s"
           (Filename.quote (trace ^ ".does-not-exist"))) in
  check_int "missing trace exits 124" 124 code;
  (* a corrupt trace dies in the follower, with provenance *)
  let corrupt = trace ^ ".corrupt" in
  let oc = open_out_bin corrupt in
  output_string oc "this is not an event\n";
  close_out oc;
  let code, _, err = run (Printf.sprintf "coverage %s" (Filename.quote corrupt)) in
  check_int "corrupt trace exits 1" 1 code;
  check_bool "error names the command" true (contains err "llm4fp coverage");
  check_bool "error names the line" true (contains err "line 1")

let test_profile_flame_export () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let out_json = Filename.concat dir "flame.json" in
  let code, out, err =
    run (Printf.sprintf "profile -b 6 -s 7 --flame %s"
           (Filename.quote out_json))
  in
  if code <> 0 then Alcotest.fail ("profile failed: " ^ err);
  check_bool "prints the span tree" true (contains out "span tree");
  match Obs.Json.parse (String.trim (read_file out_json)) with
  | Error msg -> Alcotest.fail ("flame file unparseable: " ^ msg)
  | Ok json -> begin
    match Obs.Json.member "traceEvents" json with
    | Some (Obs.Json.List (_ :: _ as events)) ->
      List.iter
        (fun ev ->
          check_bool "complete slices only" true
            (Obs.Json.member "ph" ev = Some (Obs.Json.String "X")))
        events
    | _ -> Alcotest.fail "flame file has no traceEvents"
  end

(* ------------------------------------------------------------------ *)
(* Fleet: sharded campaigns, supervision, merge *)

(* Malformed --shard specs are usage errors: exit 2 with a one-line
   diagnostic, before any work happens. *)
let test_shard_diagnostics () =
  List.iter
    (fun spec ->
      let code, _, err =
        run (Printf.sprintf "campaign llm4fp -b 4 --shard %s --out /tmp/x" spec)
      in
      check_int (Printf.sprintf "--shard %s exits 2" spec) 2 code;
      check_bool
        (Printf.sprintf "--shard %s diagnostic names the shape" spec)
        true
        (contains err "I/N" || contains err "malformed shard"))
    [ "3/2"; "abc"; "1/0"; "1/-2"; "2/2" ];
  let code, _, err = run "campaign llm4fp -b 4 --shard 0/2" in
  check_int "--shard without --out exits 2" 2 code;
  check_bool "asks for --out" true (contains err "--out");
  let code, _, err = run "campaign llm4fp -b 4 --out /tmp/x" in
  check_int "--out without --shard exits 2" 2 code;
  check_bool "says --shard" true (contains err "--shard");
  let code, _, err =
    run "campaign llm4fp -b 4 --shard 0/2 --out /tmp/x --trace /tmp/t.jsonl"
  in
  check_int "--shard rejects --trace" 2 code;
  check_bool "explains the conflict" true (contains err "--shard");
  let code, _, _ = run "fleet llm4fp -n 0 --out /tmp/x" in
  check_int "fleet -n 0 exits 2" 2 code

(* Everything the byte-identity drills compare on, per chunk. The
   checkpoint files embed absolute archive paths (they differ across
   roots by construction), so the comparison is outcome + trace +
   archive — the data the merge consumes. *)
let chunk_observation root =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun n -> String.starts_with ~prefix:"chunk-" n)
  |> List.sort String.compare
  |> List.map (fun n ->
         let dir = Filename.concat root n in
         ( n,
           read_file (Filename.concat dir "outcome.json"),
           read_file (Filename.concat dir "trace.jsonl"),
           archive_bytes (Filename.concat dir "cases") ))

let run_fleet ?(extra = "") ~root () =
  run
    (Printf.sprintf
       "fleet llm4fp -n 2 -b 12 --chunk 5 --checkpoint-every 2 --out %s%s"
       (Filename.quote root) extra)

(* The supervision drill: a fleet whose children all crash at their
   second checkpoint write must restart each shard, resume it from its
   durable per-chunk state, and still converge to the byte-identical
   tree and merge of an unfaulted fleet. *)
let test_fleet_crash_and_resume () =
  with_tmpdir ~prefix:"llm4fp-fleet-clean" @@ fun clean ->
  with_tmpdir ~prefix:"llm4fp-fleet-faulted" @@ fun faulted ->
  let code, out, err = run_fleet ~root:clean () in
  if code <> 0 then Alcotest.fail ("clean fleet failed: " ^ err);
  check_bool "clean fleet reports no restarts" true
    (contains out "0 restart(s)");
  check_bool "clean fleet suggests the merge" true (contains out "llm4fp merge");
  let code, out, err =
    run_fleet ~root:faulted ~extra:" --faults checkpoint@2:crash" ()
  in
  if code <> 0 then Alcotest.fail ("faulted fleet failed: " ^ err);
  check_bool "supervisor reports the restarts" true
    (contains err "crashed; restarting");
  check_bool "restarts surface in the frame" true (contains out "restart(s)");
  check_bool "faulted fleet restarted at least one shard" false
    (contains out "0 restart(s)");
  check_bool "crash-and-resume tree byte-identical to clean fleet" true
    (chunk_observation faulted = chunk_observation clean);
  (* and the merges agree byte for byte, artifacts included *)
  let merge root sub =
    let dir = Filename.concat root sub in
    let code, _, err =
      run (Printf.sprintf "merge %s --out %s" (Filename.quote root)
             (Filename.quote dir))
    in
    if code <> 0 then Alcotest.fail ("merge failed: " ^ err);
    ( read_file (Filename.concat dir "merged.json"),
      read_file (Filename.concat dir "stats.json"),
      read_file (Filename.concat dir "coverage.json"),
      archive_bytes (Filename.concat dir "cases") )
  in
  check_bool "merged artifacts byte-identical" true
    (merge faulted "merged" = merge clean "merged")

(* Merging an empty root is a usage error, like the other archive-less
   diagnostics. *)
let test_merge_empty_root () =
  with_tmpdir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let code, _, err = run (Printf.sprintf "merge %s" (Filename.quote dir)) in
  check_int "exit 2" 2 code;
  check_bool "hints at fleet/--shard" true
    (contains err "llm4fp fleet" || contains err "--shard")

(* The merged dashboard is deterministic: a fixed-seed single-process
   shard run merges to the golden HTML, byte for byte. *)
let test_merge_golden_dashboard () =
  with_tmpdir ~prefix:"llm4fp-merge-golden" @@ fun root ->
  let code, _, err =
    run
      (Printf.sprintf "campaign llm4fp -b 12 --chunk 5 --shard 0/1 --out %s"
         (Filename.quote root))
  in
  if code <> 0 then Alcotest.fail ("shard run failed: " ^ err);
  let html = Filename.concat root "dashboard.html" in
  let code, out, err =
    run
      (Printf.sprintf "merge %s --html %s --title %s" (Filename.quote root)
         (Filename.quote html)
         (Filename.quote "LLM4FP merged dashboard (golden)"))
  in
  if code <> 0 then Alcotest.fail ("merge --html failed: " ^ err);
  check_bool "summary names the merge" true (contains out "merged 3 chunk(s)");
  check_golden "merged dashboard" ~golden:"golden/merged_dashboard.html"
    (read_file html)

let () =
  Alcotest.run "cli"
    [
      ( "diagnostics",
        [
          Alcotest.test_case "dashboard: missing archive" `Quick
            test_dashboard_missing_archive;
          Alcotest.test_case "dashboard: empty archive" `Quick
            test_dashboard_empty_archive;
          Alcotest.test_case "explain: missing archive" `Quick
            test_explain_missing_archive;
          Alcotest.test_case "explain: empty archive" `Quick
            test_explain_empty_archive;
          Alcotest.test_case "tables: --max-pairs 0 rejected" `Quick
            test_tables_max_pairs_zero;
        ] );
      ( "watch",
        [
          Alcotest.test_case "replay matches golden frame" `Slow
            test_watch_replay_golden_frame;
          Alcotest.test_case "live watch of a finished trace" `Slow
            test_watch_live_finished_trace;
          Alcotest.test_case "timeout" `Quick test_watch_timeout;
        ] );
      ( "trace",
        [ Alcotest.test_case "query and csv" `Slow test_trace_query ] );
      ( "coverage",
        [ Alcotest.test_case "query, csv, rates" `Slow test_coverage_query ] );
      ( "profile",
        [
          Alcotest.test_case "flame export" `Slow test_profile_flame_export;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "shard diagnostics" `Quick test_shard_diagnostics;
          Alcotest.test_case "crash and resume" `Slow
            test_fleet_crash_and_resume;
          Alcotest.test_case "merge: empty root" `Quick test_merge_empty_root;
          Alcotest.test_case "merge: golden dashboard" `Slow
            test_merge_golden_dashboard;
        ] );
    ]
