(* Schema validation of the checked-in BENCH_*.json files.

   Every stored bench summary declares its schema version; this suite
   re-parses each file and checks it against the spec for that version
   — required fields present, every present field known and of the
   right kind, recursively through the nested objects. A field the
   writer grew without a version bump, or a version whose spec was
   never written down here, fails the suite: the stored trajectory
   files stay machine-readable forever. *)

open Helpers

type kind =
  | Str
  | Int
  | Num  (* Float or Int: whole floats serialize as integers *)
  | Bool
  | Obj of field list
  | List_of of kind
  | Any_obj  (* known to be an object, arbitrary keys (micro timings) *)

and field = { fname : string; fkind : kind; required : bool }

let req fname fkind = { fname; fkind; required = true }
let opt fname fkind = { fname; fkind; required = false }

let phase_spec =
  [ req "label" Str; req "count" Int; req "total_s" Num; req "mean_s" Num;
    req "max_s" Num; req "sim_s" Num ]

let common =
  [ req "schema" Str;
    req "budget" Int;
    req "seed" Int;
    req "jobs" Int;
    opt "tables_seconds" Num;
    req "end_to_end_seconds" Num;
    req "frontend_cache" (Obj [ req "runs" Int; req "hits" Int ]);
    req "phases" (List_of (Obj phase_spec));
    opt "micro_ns_per_call" Any_obj ]

let forensics =
  [ opt "record_overhead_seconds" Num;
    opt "case_archive"
      (Obj
         [ req "cases" Int; req "cross" Int; req "within" Int;
           req "duplicates" Int ]) ]

let reduction =
  [ opt "reduction"
      (Obj
         [ req "cases" Int; req "strictly_smaller" Int;
           req "shrink_ratio_mean" Num; req "shrink_ratio_min" Num;
           req "shrink_ratio_max" Num; req "oracle_calls" Int;
           req "seconds" Num ]) ]

let checkpoint =
  [ opt "checkpoint"
      (Obj
         [ req "overhead_seconds" Num; req "interval" Int;
           req "checkpoints" Int; req "resume_equivalent" Bool ]) ]

let watch =
  [ opt "watch"
      (Obj
         [ req "overhead_seconds" Num; req "polls" Int;
           req "events_streamed" Int ]);
    req "flame_events" Int ]

let engine_v8 =
  [ req "engine" Str;
    req "exec_dedup" (Obj [ req "hits" Int; req "misses" Int ]);
    opt "interp_throughput"
      (Obj
         [ req "inputs" Int; req "tree_programs_per_sec" Num;
           req "vm_programs_per_sec" Num; req "tree_fp_ops_per_sec" Num;
           req "vm_fp_ops_per_sec" Num; req "speedup" Num ]);
    opt "engine_equiv"
      (Obj [ req "budget" Int; req "jobs" Int; req "equivalent" Bool ]) ]

let coverage_v9 =
  [ opt "coverage_cells" Int;
    opt "novel_per_sim_s" Num;
    opt "plateau_at_sim_s" Num ]

let fleet_v10 =
  [ opt "fleet"
      (Obj
         [ req "budget" Int; req "chunk" Int; req "cores" Int;
           req "scaling"
             (List_of
                (Obj [ req "shards" Int; req "seconds" Num; req "speedup" Num ]));
           req "merge_seconds" Num; req "identical" Bool ]) ]

let bandit_v11 =
  [ opt "bandit"
      (Obj
         [ req "budget" Int;
           req "arms"
             (List_of
                (Obj
                   [ req "arm" Str; req "pulls" Int;
                     req "inconsistencies" Int; req "sim_seconds" Num;
                     req "rate" Num ]));
           req "bandit_rate" Num;
           req "fixed" (List_of (Obj [ req "approach" Str; req "rate" Num ]));
           req "best_fixed" Str;
           req "best_fixed_rate" Num;
           req "delta_vs_best_fixed" Num;
           req "resume_equivalent" Bool;
           req "jobs_equivalent" Bool ]) ]

(* v12: the bench's studies are one table with constant sizes, and the
   determinism drills tier-1 already asserts left it, so their recorded
   booleans ([engine_equiv], [checkpoint.resume_equivalent],
   [fleet.identical], [bandit.resume_equivalent],
   [bandit.jobs_equivalent]) are gone. Merge time is recorded per shard
   count. *)
(* [spec] with the named fields of its object fields removed. *)
let drop names spec =
  List.map
    (fun f ->
      match f.fkind with
      | Obj fields ->
        { f with
          fkind =
            Obj (List.filter (fun g -> not (List.mem g.fname names)) fields) }
      | _ -> f)
    spec

let checkpoint_v12 = drop [ "resume_equivalent" ] checkpoint
let engine_v12 = List.filter (fun f -> f.fname <> "engine_equiv") engine_v8

let fleet_v12 =
  [ opt "fleet"
      (Obj
         [ req "budget" Int; req "chunk" Int; req "cores" Int;
           req "scaling"
             (List_of
                (Obj
                   [ req "shards" Int; req "seconds" Num; req "speedup" Num;
                     req "merge_seconds" Num ])) ]) ]

let bandit_v12 = drop [ "resume_equivalent"; "jobs_equivalent" ] bandit_v11

let run_spec = function
  | "llm4fp-bench/3" -> Some common
  | "llm4fp-bench/4" -> Some (common @ forensics)
  | "llm4fp-bench/5" -> Some (common @ forensics @ reduction)
  | "llm4fp-bench/6" -> Some (common @ forensics @ reduction @ checkpoint)
  | "llm4fp-bench/7" ->
    Some (common @ forensics @ reduction @ checkpoint @ watch)
  | "llm4fp-bench/8" ->
    Some (common @ forensics @ reduction @ checkpoint @ watch @ engine_v8)
  | "llm4fp-bench/9" ->
    Some
      (common @ forensics @ reduction @ checkpoint @ watch @ engine_v8
     @ coverage_v9)
  | "llm4fp-bench/10" ->
    Some
      (common @ forensics @ reduction @ checkpoint @ watch @ engine_v8
     @ coverage_v9 @ fleet_v10)
  | "llm4fp-bench/11" ->
    Some
      (common @ forensics @ reduction @ checkpoint @ watch @ engine_v8
     @ coverage_v9 @ fleet_v10 @ bandit_v11)
  | "llm4fp-bench/12" ->
    Some
      (common @ forensics @ reduction @ checkpoint_v12 @ watch @ engine_v12
     @ coverage_v9 @ fleet_v12 @ bandit_v12)
  | _ -> None

let rec check_kind ctx kind (v : Obs.Json.t) =
  match (kind, v) with
  | Str, Obs.Json.String _ -> ()
  | Int, Obs.Json.Int _ -> ()
  | Num, (Obs.Json.Int _ | Obs.Json.Float _) -> ()
  | Bool, Obs.Json.Bool _ -> ()
  | Any_obj, Obs.Json.Obj _ -> ()
  | Obj spec, Obs.Json.Obj fields -> check_obj ctx spec fields
  | List_of k, Obs.Json.List items ->
    List.iteri (fun i x -> check_kind (Printf.sprintf "%s[%d]" ctx i) k x) items
  | _ -> Alcotest.fail (ctx ^ ": wrong JSON kind")

and check_obj ctx spec fields =
  List.iter
    (fun f ->
      match List.assoc_opt f.fname fields with
      | Some v -> check_kind (ctx ^ "." ^ f.fname) f.fkind v
      | None ->
        if f.required then
          Alcotest.fail
            (Printf.sprintf "%s: missing required field %S" ctx f.fname))
    spec;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun f -> f.fname = name) spec) then
        Alcotest.fail (Printf.sprintf "%s: unknown field %S" ctx name))
    fields

let schema_of ctx fields =
  match List.assoc_opt "schema" fields with
  | Some (Obs.Json.String s) -> s
  | _ -> Alcotest.fail (ctx ^ ": no schema field")

let check_run ctx fields =
  let schema = schema_of ctx fields in
  match run_spec schema with
  | Some spec -> check_obj (ctx ^ "(" ^ schema ^ ")") spec fields
  | None -> Alcotest.fail (ctx ^ ": unknown run schema " ^ schema)

let check_file path =
  let text = read_file path in
  match Obs.Json.parse (String.trim text) with
  | Error msg -> Alcotest.fail (path ^ ": unparseable: " ^ msg)
  | Ok (Obs.Json.Obj fields) -> begin
    match schema_of path fields with
    | "llm4fp-bench-sweep/1" ->
      check_obj path
        [ req "schema" Str; opt "description" Str;
          req "runs" (List_of Any_obj) ]
        fields;
      (match List.assoc "runs" fields with
      | Obs.Json.List runs ->
        List.iteri
          (fun i run ->
            match run with
            | Obs.Json.Obj run_fields ->
              check_run (Printf.sprintf "%s.runs[%d]" path i) run_fields
            | _ -> Alcotest.fail (path ^ ": non-object run")
          )
          runs
      | _ -> assert false)
    | _ ->
      (* A bare (non-sweep) summary, as LLM4FP_JSON_OUT writes it. *)
      check_run path fields
  end
  | Ok _ -> Alcotest.fail (path ^ ": top level is not an object")

(* Tests run in _build/default/test/; the BENCH files are declared as
   ../BENCH_*.json deps, so the sandbox has them one level up. *)
let bench_files () =
  Sys.readdir ".." |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 6
         && String.sub f 0 6 = "BENCH_"
         && Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat ".." f)

let test_checked_in_files () =
  let files = bench_files () in
  check_bool "found checked-in BENCH files" true (files <> []);
  List.iter check_file files

let test_rejects_unknown_field () =
  match
    check_obj "synthetic" (Option.get (run_spec "llm4fp-bench/3"))
      [ ("schema", Obs.Json.String "llm4fp-bench/3");
        ("budget", Obs.Json.Int 1);
        ("seed", Obs.Json.Int 1);
        ("jobs", Obs.Json.Int 1);
        ("end_to_end_seconds", Obs.Json.Float 1.0);
        ( "frontend_cache",
          Obs.Json.Obj [ ("runs", Obs.Json.Int 0); ("hits", Obs.Json.Int 0) ] );
        ("phases", Obs.Json.List []);
        ("sneaky_new_field", Obs.Json.Int 7) ]
  with
  | exception _ -> ()
  | () -> Alcotest.fail "unknown field accepted"

let test_rejects_missing_field () =
  match
    check_obj "synthetic" (Option.get (run_spec "llm4fp-bench/7"))
      [ ("schema", Obs.Json.String "llm4fp-bench/7");
        ("budget", Obs.Json.Int 1);
        ("seed", Obs.Json.Int 1);
        ("jobs", Obs.Json.Int 1);
        ("end_to_end_seconds", Obs.Json.Float 1.0);
        ( "frontend_cache",
          Obs.Json.Obj [ ("runs", Obs.Json.Int 0); ("hits", Obs.Json.Int 0) ] );
        ("phases", Obs.Json.List []) ]
    (* flame_events is required in v7 and absent here *)
  with
  | exception _ -> ()
  | () -> Alcotest.fail "missing required field accepted"

let test_v12_drops_drill_fields () =
  let module J = Obs.Json in
  let accepts fields =
    match check_obj "synthetic" (Option.get (run_spec "llm4fp-bench/12")) fields
    with
    | exception _ -> false
    | () -> true
  in
  let record ?(checkpoint = []) ?(fleet = []) ?(point = []) () =
    [ ("schema", J.String "llm4fp-bench/12");
      ("budget", J.Int 1);
      ("seed", J.Int 1);
      ("jobs", J.Int 1);
      ("engine", J.String "vm");
      ("end_to_end_seconds", J.Float 1.0);
      ("frontend_cache", J.Obj [ ("runs", J.Int 0); ("hits", J.Int 0) ]);
      ("exec_dedup", J.Obj [ ("hits", J.Int 0); ("misses", J.Int 0) ]);
      ( "checkpoint",
        J.Obj
          ([ ("overhead_seconds", J.Float 0.1); ("interval", J.Int 25);
             ("checkpoints", J.Int 3) ]
          @ checkpoint) );
      ( "fleet",
        J.Obj
          ([ ("budget", J.Int 60); ("chunk", J.Int 10); ("cores", J.Int 1);
             ( "scaling",
               J.List
                 [ J.Obj
                     ([ ("shards", J.Int 1); ("seconds", J.Float 0.1);
                        ("speedup", J.Int 1) ]
                     @ point) ] ) ]
          @ fleet) );
      ("flame_events", J.Int 0);
      ("phases", J.List []) ]
  in
  check_bool "v12 record with per-shard merge time" true
    (accepts (record ~point:[ ("merge_seconds", J.Float 0.02) ] ()));
  check_bool "scaling entry without merge time" false (accepts (record ()));
  check_bool "top-level fleet merge time" false
    (accepts
       (record
          ~point:[ ("merge_seconds", J.Float 0.02) ]
          ~fleet:[ ("merge_seconds", J.Float 0.02) ]
          ()));
  check_bool "fleet.identical" false
    (accepts
       (record
          ~point:[ ("merge_seconds", J.Float 0.02) ]
          ~fleet:[ ("identical", J.Bool true) ]
          ()));
  check_bool "checkpoint.resume_equivalent" false
    (accepts
       (record
          ~point:[ ("merge_seconds", J.Float 0.02) ]
          ~checkpoint:[ ("resume_equivalent", J.Bool true) ]
          ()))

let () =
  Alcotest.run "bench-schemas"
    [
      ( "schemas",
        [
          Alcotest.test_case "checked-in BENCH files validate" `Quick
            test_checked_in_files;
          Alcotest.test_case "unknown field rejected" `Quick
            test_rejects_unknown_field;
          Alcotest.test_case "missing field rejected" `Quick
            test_rejects_missing_field;
          Alcotest.test_case "v12 drops the drill fields" `Quick
            test_v12_drops_drill_fields;
        ] );
    ]
