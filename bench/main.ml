(* Benchmark harness: one table of studies, run in order. Each study
   prints its section and returns its own fields of the JSON summary.

     micro       Bechamel micro-benchmarks, one per pipeline stage
     tables      the four campaigns and every table and figure of the
                 paper's evaluation (Tables 1–6, Figure 3), printing the
                 rows the paper reports; EXPERIMENTS.md records
                 paper-vs-measured values. Before timing the tables it
                 checks CodeBLEU against the string-keyed reference
     ablation    compiler-mechanism ablation over a 300-program corpus
     fp32        FP32-vs-FP64 extension at budget 300
     forensics   flight-recorder overhead at budget 100
     reduce      delta-debugging shrink ratios over the first 40 cases
                 of a budget-25 archive
     checkpoint  snapshot overhead at budget 100, every 25 slots
     watch       trace-follower overhead at budget 100
     throughput  tree interpreter vs VM over 1000 input vectors
     coverage    the coverage ledger of a budget-60 campaign
     fleet       shard scaling at N = 1, 2, 4 over budget 60
     bandit      bandit ensemble vs each fixed arm at budget 200

   Study sizes are constants, so every record of one schema version ran
   the same studies at the same sizes; only [tables] follows
   LLM4FP_BUDGET. The determinism drills that tier-1 asserts (jobs,
   shards, kill/resume) live in the test suite, not here.

   Environment knobs, read once:
     LLM4FP_BUDGET    programs per approach in [tables] (default 1000)
     LLM4FP_SEED      base seed of every study (default 20250704)
     LLM4FP_MAXPAIRS  CodeBLEU pair sample bound (default 50000)
     LLM4FP_JOBS      worker domains for the parallel engine (default 1)
     LLM4FP_SKIP      comma-separated studies to skip, e.g. micro,fleet
     LLM4FP_JSON_OUT  also write the machine-readable summary there: the
                      studies' fields plus per-phase Obs.Span aggregates,
                      so BENCH_*.json files track where the time goes,
                      not just end-to-end seconds *)

open Bechamel
open Toolkit
module J = Obs.Json

type ctx = { budget : int; seed : int; jobs : int; max_pairs : int }
type study = { name : string; run : ctx -> (string * J.t) list }

let usage_error fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "bench: %s\n" msg; exit 2) fmt

let fatal fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "FATAL: %s\n" msg; exit 1) fmt

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None ->
      usage_error "invalid value for %s: %S (expected an integer)" name s
  end

(* ------------------------------------------------------------------ *)
(* Study helpers *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A per-process scratch path under the system temp dir. *)
let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "llm4fp-bench-%s-%d" name (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A case archive as comparable bytes: (filename, contents) by name. *)
let archive_bytes dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let load_cases dir =
  match Difftest.Recorder.load_dir dir with
  | Ok cases -> cases
  | Error msg -> failwith ("bench: cannot re-read case archive: " ^ msg)

(* The LLM4FP campaign the overhead studies observe. *)
let llm4fp ?recorder ?checkpoint ~budget ~jobs ~seed () =
  Harness.Campaign.run ~budget ~jobs ?recorder ?checkpoint ~seed
    Harness.Approach.Llm4fp

let signature = Harness.Campaign.signature

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: one per pipeline stage. *)

let varity_program = Gen.Varity.generate (Util.Rng.of_int 11)

let llm_source =
  let client = Llm.Client.create ~seed:11 () in
  (Llm.Client.generate client (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }))
    .Llm.Client.source

let llm_program = Cparse.Parse.program_exn llm_source

let llm_inputs =
  Gen.Generate.gen_inputs (Util.Rng.of_int 12) Llm.Client.generation_config
    llm_program

let gcc_o3fm =
  Compiler.Config.make Compiler.Personality.Gcc Compiler.Optlevel.O3_fastmath

let compiled_binary =
  match Compiler.Driver.compile gcc_o3fm llm_program with
  | Ok bin -> bin
  | Error m -> failwith m

let codebleu_summary_a = Diversity.Codebleu.summarize llm_program
let codebleu_summary_b = Diversity.Codebleu.summarize varity_program

let micro_tests =
  [
    Test.make ~name:"generate/varity"
      (Staged.stage (fun () -> Gen.Varity.generate (Util.Rng.of_int 42)));
    Test.make ~name:"generate/mock-llm"
      (let client = Llm.Client.create ~seed:42 () in
       Staged.stage (fun () ->
           Llm.Client.generate client
             (Llm.Prompt.Grammar { precision = Lang.Ast.F64 })));
    Test.make ~name:"frontend/parse"
      (Staged.stage (fun () -> Cparse.Parse.program_exn llm_source));
    Test.make ~name:"frontend/validate"
      (Staged.stage (fun () -> Analysis.Validate.check llm_program));
    Test.make ~name:"compile/gcc-O3-fastmath"
      (Staged.stage (fun () -> Compiler.Driver.compile gcc_o3fm llm_program));
    Test.make ~name:"execute/one-binary"
      (Staged.stage (fun () -> Compiler.Driver.run compiled_binary llm_inputs));
    Test.make ~name:"difftest/full-matrix"
      (Staged.stage (fun () -> Difftest.Run.test llm_program llm_inputs));
    Test.make ~name:"mutate/one-strategy"
      (let rng = Util.Rng.of_int 43 in
       Staged.stage (fun () ->
           Llm.Mutate.apply rng Llm.Mutate.Insert_intermediates llm_program));
    Test.make ~name:"diversity/codebleu-pair"
      (Staged.stage (fun () ->
           Diversity.Codebleu.symmetric codebleu_summary_a codebleu_summary_b));
    Test.make ~name:"diversity/clone-keys"
      (Staged.stage (fun () -> Diversity.Clones.type2_key llm_program));
  ]

let run_micro _ =
  (* the stages are timed bare: spans stay off while Bechamel runs *)
  Obs.Span.set_enabled false;
  print_endline "== micro-benchmarks (bechamel, monotonic clock) ==";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let analyzed = Analyze.all ols instance results in
        let estimate =
          Hashtbl.fold
            (fun _ result acc ->
              match Analyze.OLS.estimates result with
              | Some [ t ] -> t
              | _ -> acc)
            analyzed 0.0
        in
        (name, estimate))
      micro_tests
  in
  print_string
    (Report.Table.render ~header:[ "stage"; "time per call" ]
       (List.map
          (fun (name, ns) ->
            let rendered =
              if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; rendered ])
          rows));
  print_newline ();
  Obs.Span.set_enabled true;
  [ ( "micro_ns_per_call",
      J.Obj (List.map (fun (name, ns) -> (name, J.Float ns)) rows) ) ]

(* ------------------------------------------------------------------ *)
(* Table/figure regeneration. *)

(* The merge-join CodeBLEU scorer must equal the string-keyed reference
   (Prop.Codebleu_ref) bit for bit on every ordered pair, self pairs
   included, among the first [reference_programs] programs of each
   paper corpus. Fatal otherwise; runs outside the timed sections. *)
let reference_programs = 60

let check_codebleu_reference suite =
  Array.iter
    (fun approach ->
      let programs =
        (Harness.Experiments.outcome suite approach).Harness.Campaign.programs
        |> List.filteri (fun i _ -> i < reference_programs)
      in
      let summaries summarize = Array.of_list (List.map summarize programs) in
      let fast = summaries Diversity.Codebleu.summarize in
      let slow = summaries Prop.Codebleu_ref.summarize in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              let got =
                Diversity.Codebleu.pair_score ~candidate:a ~reference:b
              in
              let want =
                Prop.Codebleu_ref.pair_score ~candidate:slow.(i)
                  ~reference:slow.(j)
              in
              if Int64.bits_of_float got <> Int64.bits_of_float want then
                fatal "CodeBLEU of %s pair (%d, %d) is %h, reference %h"
                  (Harness.Approach.name approach) i j got want)
            fast)
        fast)
    Harness.Approach.all

let run_tables { budget; seed; jobs; max_pairs } =
  Printf.printf
    "== experiment harness: regenerating every table and figure (budget \
     %d per approach, %d jobs) ==\n\n"
    budget jobs;
  let suite, campaigns_s =
    timed (fun () -> Harness.Experiments.run_suite ~budget ~jobs ~seed ())
  in
  check_codebleu_reference suite;
  let tables, tables_s =
    timed (fun () -> Harness.Experiments.all_tables ~max_pairs ~jobs suite)
  in
  List.iter
    (fun (name, text) -> Printf.printf "== %s ==\n%s\n" name text)
    tables;
  let elapsed = campaigns_s +. tables_s in
  Printf.printf "(real compute for all campaigns + tables: %.1fs)\n" elapsed;
  [ ("tables_seconds", J.Float elapsed) ]

let run_ablation { seed; jobs; _ } =
  print_endline "== ablation (this reproduction's own study) ==";
  print_string (Harness.Ablation.table ~budget:300 ~jobs ~seed ());
  print_newline ();
  []

let run_fp32 { seed; _ } =
  print_endline "== precision extension (FP32 vs FP64) ==";
  print_string (Harness.Experiments.precision_comparison ~budget:300 ~seed ());
  print_newline ();
  []

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead: the same campaign with and without a case
   archive attached. Recording is specified to be purely observational,
   so the study doubles as an assertion: any differing statistic is a
   correctness bug, not a measurement artifact. *)

let run_forensics { seed; jobs; _ } =
  let budget = 100 in
  Printf.printf
    "== forensics: flight-recorder overhead (budget %d, %d jobs) ==\n"
    budget jobs;
  let bare, without_s = timed (llm4fp ~budget ~jobs ~seed) in
  let dir = tmp "cases" in
  let recorder = Difftest.Recorder.create ~dir in
  let recorded, with_s = timed (llm4fp ~recorder ~budget ~jobs ~seed) in
  if signature bare <> signature recorded then
    fatal
      "attaching the flight recorder changed campaign results (budget %d, \
       seed %d)"
      budget seed;
  let cases = load_cases dir in
  rm_rf dir;
  let n = List.length cases in
  let cross =
    List.length
      (List.filter
         (fun (c : Difftest.Case.t) -> c.Difftest.Case.kind = Difftest.Case.Cross)
         cases)
  in
  let duplicates = Difftest.Recorder.duplicates recorder in
  Printf.printf
    "without recorder: %.2fs; with: %.2fs (overhead %+.2fs); archived %d \
     case(s) (%d cross, %d within), %d duplicate hit(s); results \
     identical\n\n"
    without_s with_s (with_s -. without_s) n cross (n - cross) duplicates;
  [ ("record_overhead_seconds", J.Float (with_s -. without_s));
    ( "case_archive",
      J.Obj
        [ ("cases", J.Int n); ("cross", J.Int cross);
          ("within", J.Int (n - cross)); ("duplicates", J.Int duplicates) ] ) ]

(* ------------------------------------------------------------------ *)
(* Reduction: record a small fixed-seed archive and delta-debug every
   case, reporting how far the witnesses shrink and what the oracle
   costs. A case that fails to reduce (or to replay) is a correctness
   bug in the reducer, so the study asserts there are none. *)

let run_reduce { seed; _ } =
  let budget = 25 and max_cases = 40 in
  Printf.printf
    "== reduction: delta-debugging shrink ratios (budget %d, first %d \
     cases) ==\n"
    budget max_cases;
  let dir = tmp "reduce" in
  let recorder = Difftest.Recorder.create ~dir in
  ignore (llm4fp ~recorder ~budget ~jobs:1 ~seed ());
  let cases = List.filteri (fun i _ -> i < max_cases) (load_cases dir) in
  rm_rf dir;
  let outcomes, seconds =
    timed (fun () ->
        List.map
          (fun case ->
            match Reduce.run case with
            | Ok o -> o
            | Error msg ->
              fatal "reduction failed on %s: %s"
                (Difftest.Case.fingerprint case)
                msg)
          cases)
  in
  let ratios = List.map Reduce.shrink_ratio outcomes in
  let n = List.length outcomes in
  let smaller =
    List.length
      (List.filter
         (fun (o : Reduce.outcome) ->
           o.Reduce.reduced_size < o.Reduce.original_size)
         outcomes)
  in
  let mean =
    if n = 0 then 1.0 else List.fold_left ( +. ) 0.0 ratios /. float_of_int n
  in
  let lo = List.fold_left Float.min 1.0 ratios in
  let hi = List.fold_left Float.max 0.0 ratios in
  let oracle_calls =
    List.fold_left
      (fun acc (o : Reduce.outcome) -> acc + o.Reduce.oracle_calls)
      0 outcomes
  in
  Printf.printf
    "%d case(s) reduced in %.2fs: %d strictly smaller; shrink ratio mean \
     %.2f (min %.2f, max %.2f); %d oracle calls\n\n"
    n seconds smaller mean lo hi oracle_calls;
  [ ( "reduction",
      J.Obj
        [ ("cases", J.Int n); ("strictly_smaller", J.Int smaller);
          ("shrink_ratio_mean", J.Float mean);
          ("shrink_ratio_min", J.Float lo); ("shrink_ratio_max", J.Float hi);
          ("oracle_calls", J.Int oracle_calls); ("seconds", J.Float seconds) ]
    ) ]

(* ------------------------------------------------------------------ *)
(* Checkpointing: the same campaign without and with durable snapshots.
   That snapshots change no result and that a crashed campaign resumes
   to the uninterrupted outcome is tier-1's job (test_checkpoint); this
   study measures what the snapshots cost. *)

let run_checkpoint { seed; jobs; _ } =
  let budget = 100 and interval = 25 in
  Printf.printf
    "== checkpointing: snapshot overhead (budget %d, every %d slots, %d \
     jobs) ==\n"
    budget interval jobs;
  let _, without_s = timed (llm4fp ~budget ~jobs ~seed) in
  let dir = tmp "ckpt" in
  let _, with_s =
    timed (llm4fp ~checkpoint:(dir, interval) ~budget ~jobs ~seed)
  in
  rm_rf dir;
  let checkpoints = (budget - 1) / interval in
  Printf.printf
    "without checkpoints: %.2fs; with: %.2fs (overhead %+.2fs over %d \
     snapshot(s))\n\n"
    without_s with_s (with_s -. without_s) checkpoints;
  [ ( "checkpoint",
      J.Obj
        [ ("overhead_seconds", J.Float (with_s -. without_s));
          ("interval", J.Int interval); ("checkpoints", J.Int checkpoints) ] ) ]

(* ------------------------------------------------------------------ *)
(* Watching: the same traced campaign with and without a concurrent
   flight-deck follower polling the trace file from another domain.
   Watching is specified to be purely observational, so the study
   asserts three byte-level identities before reporting overhead: the
   campaign signatures match, the trace files match byte for byte, and
   the case archives match file for file. It also asserts the follower
   protocol itself: the concatenated streamed batches equal a one-shot
   read of the finished trace. *)

let run_watch { seed; jobs; _ } =
  let budget = 100 in
  Printf.printf
    "== watch: trace-follower overhead (budget %d, %d jobs) ==\n" budget jobs;
  let traced ~trace ~dir () =
    let recorder = Difftest.Recorder.create ~dir in
    let oc = open_out_bin trace in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink
          (Obs.Sink.ordered (Obs.Sink.jsonl oc))
          (llm4fp ~recorder ~budget ~jobs ~seed))
  in
  let trace_a = tmp "watch-trace-a.jsonl" and dir_a = tmp "watch-cases-a" in
  let trace_b = tmp "watch-trace-b.jsonl" and dir_b = tmp "watch-cases-b" in
  let bare, without_s = timed (traced ~trace:trace_a ~dir:dir_a) in
  (* Second run with a follower domain tailing the live trace. The
     watcher drains until it has seen the whole finished file: [stop]
     is raised only after the sink's channel is closed, and the loop
     does one final poll after observing it. *)
  let stop = Atomic.make false in
  let polls = ref 0 in
  let watcher = Domain.spawn (fun () ->
      let follower = Obs.Follow.create ~path:trace_b in
      let rec loop acc =
        let final = Atomic.get stop in
        let acc =
          match Obs.Follow.poll follower with
          | Ok batch -> acc @ batch.Obs.Follow.events
          | Error msg -> failwith ("bench: watcher poll failed: " ^ msg)
        in
        incr polls;
        if final then acc
        else begin
          Unix.sleepf 0.001;
          loop acc
        end
      in
      loop [])
  in
  let watched, with_s = timed (traced ~trace:trace_b ~dir:dir_b) in
  Atomic.set stop true;
  let streamed = Domain.join watcher in
  let changed what =
    fatal "a concurrent watcher changed %s (budget %d, seed %d)" what budget
      seed
  in
  if signature bare <> signature watched then changed "campaign results";
  if read_file trace_a <> read_file trace_b then changed "the trace bytes";
  if archive_bytes dir_a <> archive_bytes dir_b then changed "the case archive";
  (match Obs.Follow.read_all ~path:trace_b with
  | Ok one_shot when one_shot = streamed -> ()
  | Ok _ -> fatal "streamed batches differ from a one-shot trace read"
  | Error msg -> fatal "cannot re-read watched trace: %s" msg);
  List.iter rm_rf [ trace_a; trace_b; dir_a; dir_b ];
  let events = List.length streamed in
  Printf.printf
    "without watcher: %.2fs; with: %.2fs (overhead %+.2fs); %d event(s) \
     streamed over %d poll(s); trace, archive and results identical\n\n"
    without_s with_s (with_s -. without_s) events !polls;
  [ ( "watch",
      J.Obj
        [ ("overhead_seconds", J.Float (with_s -. without_s));
          ("polls", J.Int !polls); ("events_streamed", J.Int events) ] ) ]

(* ------------------------------------------------------------------ *)
(* Interp throughput. One compiled binary, N distinct input vectors; the
   tree interpreter re-walks the IR per call, the VM runs its flattened
   program once per vector with [Vm.run], the call the campaign makes.
   The outcomes must be bit-identical (fatal otherwise) before either
   side is timed. *)

let run_throughput { seed; _ } =
  let n = 1000 in
  Printf.printf "== interp throughput: tree vs vm (%d input vectors) ==\n" n;
  let rng = Util.Rng.of_int (seed lxor 0x7B) in
  let inputs =
    List.init n (fun _ ->
        Gen.Generate.gen_inputs rng Llm.Client.generation_config llm_program)
  in
  let binary = compiled_binary in
  let rt = Compiler.Config.runtime binary.Compiler.Driver.config in
  let tree_once () =
    List.map (fun i -> Irsim.Interp.run rt binary.Compiler.Driver.ir i) inputs
  in
  let vm_once () = List.map (Irsim.Vm.run binary.Compiler.Driver.vm) inputs in
  let tree_out = tree_once () and vm_out = vm_once () in
  let same (a : Irsim.Interp.outcome) (b : Irsim.Interp.outcome) =
    Int64.bits_of_float a.Irsim.Interp.result
    = Int64.bits_of_float b.Irsim.Interp.result
    && a.Irsim.Interp.fp_ops = b.Irsim.Interp.fp_ops
  in
  if not (List.for_all2 same tree_out vm_out) then
    fatal "VM and tree interpreter disagree over %d input vectors" n;
  let total_ops =
    List.fold_left (fun acc o -> acc + o.Irsim.Interp.fp_ops) 0 tree_out
  in
  (* Repeat all N vectors until ~0.5s has elapsed so both rates average
     over enough work to be stable. *)
  let time_engine f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    let reps = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.5 do
      ignore (f ());
      incr reps
    done;
    let dt = Unix.gettimeofday () -. t0 in
    ( float_of_int (!reps * n) /. dt,
      float_of_int (!reps * total_ops) /. dt )
  in
  let tree_pps, tree_ops_ps = time_engine tree_once in
  let vm_pps, vm_ops_ps = time_engine vm_once in
  let speedup = vm_pps /. tree_pps in
  Printf.printf
    "tree: %.0f programs/s (%.3g fp_ops/s)\nvm:   %.0f programs/s (%.3g \
     fp_ops/s)\nspeedup %.2fx; outcomes bit-identical\n\n"
    tree_pps tree_ops_ps vm_pps vm_ops_ps speedup;
  [ ( "interp_throughput",
      J.Obj
        [ ("inputs", J.Int n); ("tree_programs_per_sec", J.Float tree_pps);
          ("vm_programs_per_sec", J.Float vm_pps);
          ("tree_fp_ops_per_sec", J.Float tree_ops_ps);
          ("vm_fp_ops_per_sec", J.Float vm_ops_ps);
          ("speedup", J.Float speedup) ] ) ]

(* ------------------------------------------------------------------ *)
(* Coverage observatory: the search-space ledger one campaign
   accumulates — distinct cells, per-generator novelty, the novelty rate
   over the whole campaign, and where the plateau detector tripped (if
   it did). *)

let run_coverage { seed; jobs; _ } =
  let budget = 60 in
  Printf.printf
    "== coverage observatory (search-space ledger, budget %d) ==\n" budget;
  let o = llm4fp ~budget ~jobs ~seed () in
  let cov = o.Harness.Campaign.coverage in
  let now = o.Harness.Campaign.sim_seconds in
  let cells = Obs.Coverage.total_cells cov in
  Printf.printf
    "  %d cells (cross %d, within %d), %d hits, last novel at %.1f sim-s\n"
    cells
    (Obs.Coverage.kind_cells cov "cross")
    (Obs.Coverage.kind_cells cov "within")
    (Obs.Coverage.total_hits cov)
    (Obs.Coverage.last_novel cov);
  List.iter
    (fun (r : Obs.Coverage.strategy_rate) ->
      Printf.printf "  %-8s window hits %d (novel %d), %.6f novel/sim-s\n"
        r.Obs.Coverage.strategy r.Obs.Coverage.window_hits
        r.Obs.Coverage.window_novel r.Obs.Coverage.novel_per_sim_s)
    (Obs.Coverage.strategy_rates cov ~now);
  let plateau = Obs.Coverage.plateau_at cov ~now in
  (match plateau with
  | Some at -> Printf.printf "  plateau tripped at %.1f sim-s\n\n" at
  | None -> Printf.printf "  no plateau within the campaign\n\n");
  [ ("coverage_cells", J.Int cells);
    ( "novel_per_sim_s",
      J.Float (if now > 0.0 then float_of_int cells /. now else 0.0) ) ]
  @ Option.fold ~none:[] ~some:(fun at -> [ ("plateau_at_sim_s", J.Float at) ])
      plateau

(* ------------------------------------------------------------------ *)
(* Fleet scaling: the same chunked budget at N ∈ {1, 2, 4} shards, each
   shard a domain running [Fleet.run_shard] with traces off (the trace
   sink is process-global), then a merge of the root. Wall-clock and
   merge time per N land in the JSON summary as the scaling curve. On a
   one-core box the curve measures sharding overhead, not speedup. *)

let run_fleet { seed; _ } =
  let budget = 60 and chunk = 10 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "== fleet scaling (budget %d, chunk %d, shards 1/2/4, %d core(s)) ==\n"
    budget chunk cores;
  let run n =
    let root = tmp (Printf.sprintf "fleet-n%d" n) in
    rm_rf root;
    Util.Durable.mkdir_p root;
    let (), seconds =
      timed (fun () ->
          List.init n (fun i ->
              Domain.spawn (fun () ->
                  Harness.Fleet.run_shard ~chunk ~trace:false ~root
                    ~spec:{ Harness.Shard.index = i; count = n }
                    ~budget ~seed Harness.Approach.Llm4fp))
          |> List.iter (fun d ->
                 match Domain.join d with
                 | Ok _ -> ()
                 | Error msg -> fatal "fleet shard failed at N=%d: %s" n msg))
    in
    let (), merge_seconds =
      timed (fun () ->
          match Harness.Fleet.load ~root with
          | Ok _ -> ()
          | Error msg -> fatal "fleet merge failed at N=%d: %s" n msg)
    in
    rm_rf root;
    (n, seconds, merge_seconds)
  in
  let points = List.map run [ 1; 2; 4 ] in
  let _, t1_seconds, _ = List.hd points in
  let speedup seconds = if seconds > 0.0 then t1_seconds /. seconds else 0.0 in
  List.iter
    (fun (n, seconds, merge_seconds) ->
      Printf.printf "  N=%d: %.2fs (speedup %.2fx, merge %.3fs)\n" n seconds
        (speedup seconds) merge_seconds)
    points;
  print_newline ();
  [ ( "fleet",
      J.Obj
        [ ("budget", J.Int budget); ("chunk", J.Int chunk);
          ("cores", J.Int cores);
          ( "scaling",
            J.List
              (List.map
                 (fun (n, seconds, merge_seconds) ->
                   J.Obj
                     [ ("shards", J.Int n); ("seconds", J.Float seconds);
                       ("speedup", J.Float (speedup seconds));
                       ("merge_seconds", J.Float merge_seconds) ])
                 points) ) ] ) ]

(* ------------------------------------------------------------------ *)
(* Bandit ensemble: the five-arm bandit campaign against each fixed arm
   at the same budget and seed, compared on inconsistencies per
   simulated second. *)

let run_bandit { seed; jobs; _ } =
  let budget = 200 in
  Printf.printf
    "== bandit ensemble: ablation vs fixed arms (budget %d, %d jobs) ==\n"
    budget jobs;
  let rate (o : Harness.Campaign.outcome) =
    let s = o.Harness.Campaign.sim_seconds in
    if s > 0.0 then
      float_of_int (Difftest.Stats.total_inconsistencies o.Harness.Campaign.stats)
      /. s
    else 0.0
  in
  let o = Harness.Campaign.run ~budget ~jobs ~seed Harness.Approach.Bandit in
  let arms =
    match o.Harness.Campaign.bandit with
    | Some b -> Harness.Bandit.table b
    | None -> fatal "bandit campaign returned no bandit state"
  in
  let fixed =
    List.map
      (fun a ->
        ( Harness.Approach.name a,
          rate (Harness.Campaign.run ~budget ~jobs ~seed a) ))
      (Array.to_list Harness.Approach.all)
  in
  let best_fixed, best_fixed_rate =
    List.fold_left
      (fun (bn, br) (n, r) -> if r > br then (n, r) else (bn, br))
      ("", neg_infinity) fixed
  in
  Printf.printf "  per-arm allocation (bandit campaign):\n";
  List.iter
    (fun (arm, pulls, incons, sim_s, r) ->
      Printf.printf "    %-8s %5d pull(s)  %5d incons  %8.1f sim-s  %.4f/s\n"
        arm pulls incons sim_s r)
    arms;
  let bandit_rate = rate o in
  Printf.printf "  fixed arms at the same budget:\n";
  List.iter
    (fun (n, r) -> Printf.printf "    %-14s %.4f incons/sim-s\n" n r)
    fixed;
  Printf.printf
    "  bandit: %.4f incons/sim-s vs best fixed arm %s at %.4f (%+.4f)\n\n"
    bandit_rate best_fixed best_fixed_rate
    (bandit_rate -. best_fixed_rate);
  [ ( "bandit",
      J.Obj
        [ ("budget", J.Int budget);
          ( "arms",
            J.List
              (List.map
                 (fun (arm, pulls, incons, sim_s, r) ->
                   J.Obj
                     [ ("arm", J.String arm); ("pulls", J.Int pulls);
                       ("inconsistencies", J.Int incons);
                       ("sim_seconds", J.Float sim_s); ("rate", J.Float r) ])
                 arms) );
          ("bandit_rate", J.Float bandit_rate);
          ( "fixed",
            J.List
              (List.map
                 (fun (n, r) ->
                   J.Obj [ ("approach", J.String n); ("rate", J.Float r) ])
                 fixed) );
          ("best_fixed", J.String best_fixed);
          ("best_fixed_rate", J.Float best_fixed_rate);
          ("delta_vs_best_fixed", J.Float (bandit_rate -. best_fixed_rate)) ] )
  ]

(* ------------------------------------------------------------------ *)
(* Flamegraph export: the span tree collected across the whole bench
   run must export as well-formed Chrome trace-event JSON — parseable,
   every event a complete ("ph":"X") slice with the required fields,
   and every child slice nested inside its parent's interval. Asserted
   fatally; the event count lands in the JSON summary. *)

let validate_flame () =
  let events =
    match J.parse (J.to_string (Obs.Span.flame ())) with
    | Error msg -> fatal "flame export is not valid JSON: %s" msg
    | Ok v -> begin
      match J.member "traceEvents" v with
      | Some (J.List evs) -> evs
      | _ -> fatal "flame export lacks a traceEvents list"
    end
  in
  let num = function
    | Some (J.Float f) -> f
    | Some (J.Int i) -> float_of_int i
    | _ -> fatal "flame event has a missing/non-numeric ts or dur"
  in
  List.iter
    (fun ev ->
      (match J.member "ph" ev with
      | Some (J.String "X") -> ()
      | _ -> fatal "flame event is not a complete (\"X\") slice");
      (match J.member "name" ev with
      | Some (J.String _) -> ()
      | _ -> fatal "flame event lacks a name");
      let ts = num (J.member "ts" ev) in
      let dur = num (J.member "dur" ev) in
      if ts < 0.0 || dur < 0.0 then
        fatal "flame event has a negative ts or dur";
      match (J.member "pid" ev, J.member "tid" ev) with
      | Some (J.Int _), Some (J.Int _) -> ()
      | _ -> fatal "flame event lacks pid/tid")
    events;
  (* Nesting: walk the span tree alongside the flat event list — each
     tree node produced exactly one slice in DFS order, and a child's
     [ts, ts+dur) interval must lie within its parent's. *)
  let slices = ref events in
  let next () =
    match !slices with
    | [] -> fatal "flame export has fewer slices than tree nodes"
    | s :: rest ->
      slices := rest;
      (num (J.member "ts" s), num (J.member "dur" s))
  in
  let rec walk (n : Obs.Span.node) =
    let ts, dur = next () in
    List.iter
      (fun (child : Obs.Span.node) ->
        let cts, cdur = walk child in
        if cts < ts -. 0.5 || cts +. cdur > ts +. dur +. 0.5 then
          fatal "flame slice escapes its parent's interval")
      n.Obs.Span.n_children;
    (ts, dur)
  in
  List.iter (fun n -> ignore (walk n)) (Obs.Span.tree ());
  if !slices <> [] then fatal "flame export has more slices than tree nodes";
  List.length events

(* ------------------------------------------------------------------ *)
(* The table, the skip list and the summary. *)

let studies =
  [ { name = "micro"; run = run_micro };
    { name = "tables"; run = run_tables };
    { name = "ablation"; run = run_ablation };
    { name = "fp32"; run = run_fp32 };
    { name = "forensics"; run = run_forensics };
    { name = "reduce"; run = run_reduce };
    { name = "checkpoint"; run = run_checkpoint };
    { name = "watch"; run = run_watch };
    { name = "throughput"; run = run_throughput };
    { name = "coverage"; run = run_coverage };
    { name = "fleet"; run = run_fleet };
    { name = "bandit"; run = run_bandit } ]

(* LLM4FP_SKIP, parsed against the table: an unknown study name, or a
   leftover per-study skip variable, is an error and not a silent
   no-op. *)
let skipped () =
  let names = String.concat "," (List.map (fun s -> s.name) studies) in
  Array.iter
    (fun binding ->
      let var = List.hd (String.split_on_char '=' binding) in
      if var <> "LLM4FP_SKIP" && String.starts_with ~prefix:"LLM4FP_SKIP" var
      then
        usage_error "%s is not read; set LLM4FP_SKIP to a list of: %s" var
          names)
    (Unix.environment ());
  match Sys.getenv_opt "LLM4FP_SKIP" with
  | None -> []
  | Some list ->
    List.filter_map
      (fun name ->
        match String.trim name with
        | "" -> None
        | name when List.exists (fun s -> s.name = name) studies -> Some name
        | name ->
          usage_error "unknown study %S in LLM4FP_SKIP; studies: %s" name names)
      (String.split_on_char ',' list)

let json_summary ctx ~end_to_end_seconds ~flame_events fields =
  let phase (r : Obs.Span.row) =
    J.Obj
      [ ("label", J.String r.Obs.Span.label);
        ("count", J.Int r.Obs.Span.count);
        ("total_s", J.Float r.Obs.Span.total_s);
        ("mean_s", J.Float r.Obs.Span.mean_s);
        ("max_s", J.Float r.Obs.Span.max_s);
        ("sim_s", J.Float r.Obs.Span.sim_s) ]
  in
  (* [counter] is get-or-create by name, so reading through it never
     fails — an instrument the run didn't touch just reads 0. *)
  let counter name =
    J.Int (Obs.Metrics.counter_value (Obs.Metrics.counter name))
  in
  J.Obj
    ([ ("schema", J.String "llm4fp-bench/12");
       ("budget", J.Int ctx.budget);
       ("seed", J.Int ctx.seed);
       ("jobs", J.Int ctx.jobs);
       ( "engine",
         J.String (Compiler.Driver.engine_name (Compiler.Driver.engine ())) );
       ("end_to_end_seconds", J.Float end_to_end_seconds);
       ( "frontend_cache",
         J.Obj
           [ ("runs", counter "compiler.frontend.runs");
             ("hits", counter "compiler.frontend.cache_hits") ] );
       ( "exec_dedup",
         J.Obj
           [ ("hits", counter "exec.dedup.hits");
             ("misses", counter "exec.dedup.misses") ] ) ]
    @ fields
    @ [ ("flame_events", J.Int flame_events);
        ("phases", J.List (List.map phase (Obs.Span.summary ()))) ])

let () =
  let t_start = Unix.gettimeofday () in
  let ctx =
    { budget = env_int "LLM4FP_BUDGET" 1000;
      seed = env_int "LLM4FP_SEED" 20250704;
      jobs = env_int "LLM4FP_JOBS" 1;
      max_pairs = env_int "LLM4FP_MAXPAIRS" 50_000 }
  in
  let skip = skipped () in
  (* phase aggregates land in the JSON summary (a few ns per span) *)
  Obs.Span.set_enabled true;
  let fields =
    List.concat_map
      (fun s -> if List.mem s.name skip then [] else s.run ctx)
      studies
  in
  let flame_events = validate_flame () in
  Printf.printf "(flame export valid: %d slice(s))\n" flame_events;
  match Sys.getenv_opt "LLM4FP_JSON_OUT" with
  | None -> ()
  | Some path ->
    let end_to_end_seconds = Unix.gettimeofday () -. t_start in
    Util.Durable.write_string ~path
      (J.to_string (json_summary ctx ~end_to_end_seconds ~flame_events fields)
      ^ "\n");
    Printf.printf "(wrote JSON summary to %s)\n" path
