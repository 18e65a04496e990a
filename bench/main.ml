(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks for each pipeline stage (generation, front
      end, compilation, execution, mutation, diversity scoring) — one
      Test.make per stage, all in one executable.
   2. The experiment harness: runs the four campaigns at the paper's
      budget and regenerates every table and figure of the evaluation
      (Tables 1–6 and Figure 3), printing the same rows the paper
      reports. EXPERIMENTS.md records paper-vs-measured values.

   Environment knobs:
     LLM4FP_BUDGET    programs per approach        (default 1000)
     LLM4FP_SEED      base seed                    (default 20250704)
     LLM4FP_MAXPAIRS  CodeBLEU pair sample bound   (default 50000)
     LLM4FP_JOBS      worker domains for the parallel engine (default 1);
                      when > 1 the harness first asserts that a small
                      parallel suite renders byte-identically to the
                      sequential one, then runs everything at that width
     LLM4FP_SKIP_MICRO=1   skip the bechamel half
     LLM4FP_SKIP_TABLES=1  skip the campaign half
     LLM4FP_SKIP_ABLATION=1  skip the mechanism-ablation study
     LLM4FP_ABLATION_BUDGET  corpus size for ablation/FP32 (default 300)
     LLM4FP_SKIP_FP32=1    skip the FP32-vs-FP64 extension
     LLM4FP_SKIP_FORENSICS=1  skip the flight-recorder overhead study
     LLM4FP_FORENSICS_BUDGET  campaign size for that study (default 100)
     LLM4FP_SKIP_REDUCE=1  skip the case-reduction study
     LLM4FP_REDUCE_BUDGET  campaign size for that study (default 25)
     LLM4FP_REDUCE_CASES   cases reduced from its archive (default 40)
     LLM4FP_SKIP_CHECKPOINT=1  skip the checkpoint overhead study
     LLM4FP_CHECKPOINT_BUDGET  campaign size for that study (default 100)
     LLM4FP_CHECKPOINT_EVERY   slots between checkpoints (default 25)
     LLM4FP_SKIP_WATCH=1   skip the watcher overhead study
     LLM4FP_WATCH_BUDGET   campaign size for that study (default 100)
     LLM4FP_SKIP_THROUGHPUT=1  skip the tree-vs-vm interp throughput study
     LLM4FP_THROUGHPUT_INPUTS  input vectors for that study (default 1000)
     LLM4FP_SKIP_COVERAGE=1  skip the coverage-observatory study
     LLM4FP_COVERAGE_BUDGET  campaign size for that study (default 60)
     LLM4FP_SKIP_FLEET=1   skip the fleet scaling study
     LLM4FP_FLEET_BUDGET   campaign size for that study (default 60)
     LLM4FP_SKIP_BANDIT=1  skip the bandit-ensemble ablation study
     LLM4FP_BANDIT_BUDGET  campaign size for that study (default 200)
     LLM4FP_JSON_OUT=FILE  also write a machine-readable summary (totals
                           plus per-phase Obs.Span aggregates, so
                           BENCH_*.json files track the phase-level
                           trajectory, not just end-to-end seconds) *)

open Bechamel
open Toolkit

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None ->
      Printf.eprintf "bench: invalid value for %s: %S (expected an integer)\n"
        name s;
      exit 2
  end

let env_flag name = Sys.getenv_opt name = Some "1"

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

let run_micro () : (string * float) list =
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
  rows

(* ------------------------------------------------------------------ *)
(* Table/figure regeneration. *)

(* Parallelism must never change results: before running anything at
   LLM4FP_JOBS > 1, render a small suite sequentially and at the
   requested width and require the deterministic tables to match byte
   for byte. (summary embeds measured real seconds, so the check uses
   table2 and table5.) *)
let assert_jobs_deterministic ~jobs =
  let budget = 20 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  let render jobs =
    let suite = Harness.Experiments.run_suite ~budget ~jobs ~seed () in
    ( Harness.Experiments.table2 suite,
      Harness.Experiments.table5 suite )
  in
  let seq = render 1 in
  let par = render jobs in
  if seq <> par then begin
    Printf.eprintf
      "FATAL: tables differ between --jobs 1 and --jobs %d (budget %d, \
       seed %d)\n"
      jobs budget seed;
    exit 1
  end;
  Printf.printf
    "(determinism check: budget-%d suite byte-identical at jobs=1 and \
     jobs=%d)\n\n"
    budget jobs

let run_tables ~jobs () =
  let budget = env_int "LLM4FP_BUDGET" 1000 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  let max_pairs = env_int "LLM4FP_MAXPAIRS" 50_000 in
  Printf.printf
    "== experiment harness: regenerating every table and figure (budget \
     %d per approach, %d jobs) ==\n\n"
    budget jobs;
  let t0 = Unix.gettimeofday () in
  let suite = Harness.Experiments.run_suite ~budget ~jobs ~seed () in
  List.iter
    (fun (name, text) -> Printf.printf "== %s ==\n%s\n" name text)
    (Harness.Experiments.all_tables ~max_pairs ~jobs suite);
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "(real compute for all campaigns + tables: %.1fs)\n" elapsed;
  elapsed

let run_ablation ~jobs () =
  let budget = env_int "LLM4FP_ABLATION_BUDGET" 300 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  print_endline "== ablation (this reproduction's own study) ==";
  print_string (Harness.Ablation.table ~budget ~jobs ~seed ());
  print_newline ()

let run_fp32 () =
  let budget = env_int "LLM4FP_ABLATION_BUDGET" 300 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  print_endline "== precision extension (FP32 vs FP64) ==";
  print_string (Harness.Experiments.precision_comparison ~budget ~seed ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead: the same campaign with and without a case
   archive attached. Recording is specified to be purely observational,
   so the study doubles as an assertion: any differing statistic is a
   correctness bug, not a measurement artifact. *)

type forensics_summary = {
  f_without_s : float;
  f_with_s : float;
  f_cases : int;
  f_cross : int;
  f_within : int;
  f_duplicates : int;
}

let run_forensics ~jobs () =
  let budget = env_int "LLM4FP_FORENSICS_BUDGET" 100 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== forensics: flight-recorder overhead (budget %d, %d jobs) ==\n"
    budget jobs;
  let bare, without_s =
    timed (fun () ->
        Harness.Campaign.run ~budget ~jobs ~seed Harness.Approach.Llm4fp)
  in
  let dir = tmp "cases" in
  let recorder = Difftest.Recorder.create ~dir in
  let recorded, with_s =
    timed (fun () ->
        Harness.Campaign.run ~budget ~jobs ~recorder ~seed
          Harness.Approach.Llm4fp)
  in
  let signature = Harness.Campaign.signature in
  if signature bare <> signature recorded then begin
    Printf.eprintf
      "FATAL: attaching the flight recorder changed campaign results \
       (budget %d, seed %d)\n"
      budget seed;
    exit 1
  end;
  let cases =
    match Difftest.Recorder.load_dir dir with
    | Ok cases -> cases
    | Error msg -> failwith ("bench: cannot re-read case archive: " ^ msg)
  in
  let cross =
    List.length
      (List.filter
         (fun (c : Difftest.Case.t) -> c.Difftest.Case.kind = Difftest.Case.Cross)
         cases)
  in
  let summary =
    {
      f_without_s = without_s;
      f_with_s = with_s;
      f_cases = List.length cases;
      f_cross = cross;
      f_within = List.length cases - cross;
      f_duplicates = Difftest.Recorder.duplicates recorder;
    }
  in
  rm_rf dir;
  Printf.printf
    "without recorder: %.2fs; with: %.2fs (overhead %+.2fs); archived %d \
     case(s) (%d cross, %d within), %d duplicate hit(s); results \
     identical\n\n"
    summary.f_without_s summary.f_with_s
    (summary.f_with_s -. summary.f_without_s)
    summary.f_cases summary.f_cross summary.f_within summary.f_duplicates;
  summary

(* ------------------------------------------------------------------ *)
(* Reduction: record a small fixed-seed archive and delta-debug every
   case, reporting how far the witnesses shrink and what the oracle
   costs. A case that fails to reduce (or to replay) is a correctness
   bug in the reducer, so the study asserts there are none. *)

type reduce_summary = {
  r_seconds : float;
  r_cases : int;
  r_strictly_smaller : int;
  r_ratio_mean : float;
  r_ratio_min : float;
  r_ratio_max : float;
  r_oracle_calls : int;
}

let run_reduce () =
  let budget = env_int "LLM4FP_REDUCE_BUDGET" 25 in
  let max_cases = env_int "LLM4FP_REDUCE_CASES" 40 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== reduction: delta-debugging shrink ratios (budget %d, first %d \
     cases) ==\n"
    budget max_cases;
  let dir = tmp "reduce" in
  let recorder = Difftest.Recorder.create ~dir in
  ignore
    (Harness.Campaign.run ~budget ~jobs:1 ~recorder ~seed
       Harness.Approach.Llm4fp);
  let cases =
    match Difftest.Recorder.load_dir dir with
    | Ok cases -> List.filteri (fun i _ -> i < max_cases) cases
    | Error msg -> failwith ("bench: cannot re-read case archive: " ^ msg)
  in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    List.map
      (fun case ->
        match Reduce.run case with
        | Ok o -> o
        | Error msg ->
          Printf.eprintf "FATAL: reduction failed on %s: %s\n"
            (Difftest.Case.fingerprint case)
            msg;
          exit 1)
      cases
  in
  let r_seconds = Unix.gettimeofday () -. t0 in
  rm_rf dir;
  let ratios = List.map Reduce.shrink_ratio outcomes in
  let n = List.length outcomes in
  let summary =
    {
      r_seconds;
      r_cases = n;
      r_strictly_smaller =
        List.length
          (List.filter
             (fun (o : Reduce.outcome) ->
               o.Reduce.reduced_size < o.Reduce.original_size)
             outcomes);
      r_ratio_mean =
        (if n = 0 then 1.0
         else List.fold_left ( +. ) 0.0 ratios /. float_of_int n);
      r_ratio_min = List.fold_left Float.min 1.0 ratios;
      r_ratio_max = List.fold_left Float.max 0.0 ratios;
      r_oracle_calls =
        List.fold_left
          (fun acc (o : Reduce.outcome) -> acc + o.Reduce.oracle_calls)
          0 outcomes;
    }
  in
  Printf.printf
    "%d case(s) reduced in %.2fs: %d strictly smaller; shrink ratio mean \
     %.2f (min %.2f, max %.2f); %d oracle calls\n\n"
    summary.r_cases summary.r_seconds summary.r_strictly_smaller
    summary.r_ratio_mean summary.r_ratio_min summary.r_ratio_max
    summary.r_oracle_calls;
  summary

(* ------------------------------------------------------------------ *)
(* Checkpointing: the same campaign without and with durable snapshots,
   then a crash-recovery drill. Checkpointing is specified to change no
   result, and a resumed campaign must be indistinguishable from an
   uninterrupted one — both properties are asserted fatally, so the
   overhead numbers this study reports are only ever printed for a
   correct implementation. *)

type checkpoint_summary = {
  c_without_s : float;
  c_with_s : float;
  c_interval : int;
  c_checkpoints : int;
  c_resume_equivalent : bool;
}

let run_checkpoint ~jobs () =
  let budget = env_int "LLM4FP_CHECKPOINT_BUDGET" 100 in
  let interval = env_int "LLM4FP_CHECKPOINT_EVERY" 25 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== checkpointing: snapshot overhead and crash recovery (budget %d, \
     every %d slots, %d jobs) ==\n"
    budget interval jobs;
  if budget <= 2 * interval then begin
    Printf.eprintf
      "FATAL: LLM4FP_CHECKPOINT_BUDGET (%d) must exceed twice \
       LLM4FP_CHECKPOINT_EVERY (%d) so the crash drill has a second \
       checkpoint to die at\n"
      budget interval;
    exit 1
  end;
  let signature = Harness.Campaign.signature in
  let bare, without_s =
    timed (fun () ->
        Harness.Campaign.run ~budget ~jobs ~seed Harness.Approach.Llm4fp)
  in
  let dir = tmp "ckpt" in
  let snapshotted, with_s =
    timed (fun () ->
        Harness.Campaign.run ~budget ~jobs ~checkpoint:(dir, interval) ~seed
          Harness.Approach.Llm4fp)
  in
  if signature bare <> signature snapshotted then begin
    Printf.eprintf
      "FATAL: checkpointing changed campaign results (budget %d, seed %d)\n"
      budget seed;
    exit 1
  end;
  rm_rf dir;
  (* Crash drill: die mid-write at the second checkpoint (the atomic
     rename means the first snapshot survives intact), resume from it,
     and require the outcome to match the uninterrupted run exactly. *)
  let crash_dir = tmp "ckpt-crash" in
  Exec.Faults.arm
    [ { Exec.Faults.stage = Exec.Faults.Checkpoint_write;
        hit = 2;
        action = Exec.Faults.Crash } ];
  (match
     Harness.Campaign.run ~budget ~jobs ~checkpoint:(crash_dir, interval)
       ~seed Harness.Approach.Llm4fp
   with
  | exception Exec.Faults.Crash_injected _ -> ()
  | _ ->
    Printf.eprintf "FATAL: injected checkpoint crash never fired\n";
    exit 1);
  Exec.Faults.disarm ();
  let resumed =
    match Checkpoint.load ~dir:crash_dir with
    | Error msg ->
      Printf.eprintf "FATAL: surviving checkpoint unreadable: %s\n" msg;
      exit 1
    | Ok snap ->
      Harness.Campaign.run ~budget ~jobs ~resume:snap ~seed
        Harness.Approach.Llm4fp
  in
  rm_rf crash_dir;
  let resume_equivalent = signature resumed = signature bare in
  if not resume_equivalent then begin
    Printf.eprintf
      "FATAL: resumed campaign diverged from the uninterrupted run \
       (budget %d, seed %d, crash at checkpoint 2)\n"
      budget seed;
    exit 1
  end;
  let summary =
    {
      c_without_s = without_s;
      c_with_s = with_s;
      c_interval = interval;
      c_checkpoints = (budget - 1) / interval;
      c_resume_equivalent = resume_equivalent;
    }
  in
  Printf.printf
    "without checkpoints: %.2fs; with: %.2fs (overhead %+.2fs over %d \
     snapshot(s)); crash at checkpoint 2 resumed to an identical \
     outcome\n\n"
    summary.c_without_s summary.c_with_s
    (summary.c_with_s -. summary.c_without_s)
    summary.c_checkpoints;
  summary

(* ------------------------------------------------------------------ *)
(* Watching: the same traced campaign with and without a concurrent
   flight-deck follower polling the trace file from another domain.
   Watching is specified to be purely observational, so the study
   asserts three byte-level identities before reporting overhead: the
   campaign signatures match, the trace files match byte for byte, and
   the case archives match file for file. It also asserts the follower
   protocol itself: the concatenated streamed batches equal a one-shot
   read of the finished trace. *)

type watch_summary = {
  w_without_s : float;
  w_with_s : float;
  w_polls : int;
  w_events : int;
}

let run_watch ~jobs () =
  let budget = env_int "LLM4FP_WATCH_BUDGET" 100 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== watch: trace-follower overhead (budget %d, %d jobs) ==\n" budget jobs;
  let traced ~trace ~dir f =
    let recorder = Difftest.Recorder.create ~dir in
    let oc = open_out_bin trace in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Obs.Trace.with_sink
          (Obs.Sink.ordered (Obs.Sink.jsonl oc))
          (fun () -> f ~recorder))
  in
  let signature = Harness.Campaign.signature in
  let trace_a = tmp "watch-trace-a.jsonl" and dir_a = tmp "watch-cases-a" in
  let trace_b = tmp "watch-trace-b.jsonl" and dir_b = tmp "watch-cases-b" in
  let bare, without_s =
    timed (fun () ->
        traced ~trace:trace_a ~dir:dir_a (fun ~recorder ->
            Harness.Campaign.run ~budget ~jobs ~recorder ~seed
              Harness.Approach.Llm4fp))
  in
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
  let watched, with_s =
    timed (fun () ->
        traced ~trace:trace_b ~dir:dir_b (fun ~recorder ->
            Harness.Campaign.run ~budget ~jobs ~recorder ~seed
              Harness.Approach.Llm4fp))
  in
  Atomic.set stop true;
  let streamed = Domain.join watcher in
  if signature bare <> signature watched then begin
    Printf.eprintf
      "FATAL: a concurrent watcher changed campaign results (budget %d, \
       seed %d)\n"
      budget seed;
    exit 1
  end;
  if read_file trace_a <> read_file trace_b then begin
    Printf.eprintf
      "FATAL: a concurrent watcher changed the trace bytes (budget %d, \
       seed %d)\n"
      budget seed;
    exit 1
  end;
  if archive_bytes dir_a <> archive_bytes dir_b then begin
    Printf.eprintf
      "FATAL: a concurrent watcher changed the case archive (budget %d, \
       seed %d)\n"
      budget seed;
    exit 1
  end;
  (match Obs.Follow.read_all ~path:trace_b with
  | Ok one_shot when one_shot = streamed -> ()
  | Ok _ ->
    Printf.eprintf
      "FATAL: streamed batches differ from a one-shot trace read\n";
    exit 1
  | Error msg ->
    Printf.eprintf "FATAL: cannot re-read watched trace: %s\n" msg;
    exit 1);
  Sys.remove trace_a;
  Sys.remove trace_b;
  rm_rf dir_a;
  rm_rf dir_b;
  let summary =
    {
      w_without_s = without_s;
      w_with_s = with_s;
      w_polls = !polls;
      w_events = List.length streamed;
    }
  in
  Printf.printf
    "without watcher: %.2fs; with: %.2fs (overhead %+.2fs); %d event(s) \
     streamed over %d poll(s); trace, archive and results identical\n\n"
    summary.w_without_s summary.w_with_s
    (summary.w_with_s -. summary.w_without_s)
    summary.w_events summary.w_polls;
  summary

(* ------------------------------------------------------------------ *)
(* Interp throughput: the tentpole measurement. One compiled binary, N
   distinct input vectors; the tree interpreter re-walks the IR per
   call, the VM runs its flattened program over one reused state. The
   outcomes must be bit-identical (fatal otherwise) before either side
   is timed. *)

type throughput_summary = {
  t_inputs : int;
  t_tree_pps : float;
  t_vm_pps : float;
  t_tree_ops_ps : float;
  t_vm_ops_ps : float;
  t_speedup : float;
}

let run_throughput () =
  let n = env_int "LLM4FP_THROUGHPUT_INPUTS" 1000 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
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
  let vm_once () = Irsim.Vm.run_batch binary.Compiler.Driver.vm inputs in
  let tree_out = tree_once () and vm_out = vm_once () in
  let same (a : Irsim.Interp.outcome) (b : Irsim.Interp.outcome) =
    Int64.bits_of_float a.Irsim.Interp.result
    = Int64.bits_of_float b.Irsim.Interp.result
    && a.Irsim.Interp.fp_ops = b.Irsim.Interp.fp_ops
  in
  if not (List.for_all2 same tree_out vm_out) then begin
    Printf.eprintf
      "FATAL: VM and tree interpreter disagree over %d input vectors\n" n;
    exit 1
  end;
  let total_ops =
    List.fold_left (fun acc o -> acc + o.Irsim.Interp.fp_ops) 0 tree_out
  in
  (* Repeat whole batches until ~0.5s has elapsed so both rates average
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
  let t_tree_pps, t_tree_ops_ps = time_engine tree_once in
  let t_vm_pps, t_vm_ops_ps = time_engine vm_once in
  let summary =
    {
      t_inputs = n;
      t_tree_pps;
      t_vm_pps;
      t_tree_ops_ps;
      t_vm_ops_ps;
      t_speedup = t_vm_pps /. t_tree_pps;
    }
  in
  Printf.printf
    "tree: %.0f programs/s (%.3g fp_ops/s)\nvm:   %.0f programs/s (%.3g \
     fp_ops/s)\nspeedup %.2fx; outcomes bit-identical\n\n"
    summary.t_tree_pps summary.t_tree_ops_ps summary.t_vm_pps
    summary.t_vm_ops_ps summary.t_speedup;
  summary

(* ------------------------------------------------------------------ *)
(* Coverage observatory: the search-space ledger a campaign accumulates
   must itself be deterministic — same cells, same provenance, same
   rolling window — at any job count (asserted fatally by comparing the
   serialized snapshots). The study also surfaces the v9 summary
   fields: distinct cells, the novelty rate over the whole campaign,
   and where the plateau detector tripped (if it did). *)

type coverage_summary = {
  cov_cells : int;
  cov_novel_per_sim_s : float;
  cov_plateau_at : float option;
}

let run_coverage ~jobs () =
  let budget = env_int "LLM4FP_COVERAGE_BUDGET" 60 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== coverage observatory (search-space ledger, budget %d) ==\n" budget;
  let run jobs =
    Harness.Campaign.run ~budget ~jobs ~seed Harness.Approach.Llm4fp
  in
  let o = run jobs in
  let snapshot (o : Harness.Campaign.outcome) =
    Obs.Json.to_string (Obs.Coverage.to_json o.Harness.Campaign.coverage)
  in
  if jobs > 1 && snapshot o <> snapshot (run 1) then begin
    Printf.eprintf
      "FATAL: coverage ledger differs between --jobs 1 and --jobs %d \
       (budget %d, seed %d)\n"
      jobs budget seed;
    exit 1
  end;
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
  {
    cov_cells = cells;
    cov_novel_per_sim_s =
      (if now > 0.0 then float_of_int cells /. now else 0.0);
    cov_plateau_at = plateau;
  }

(* ------------------------------------------------------------------ *)
(* Fleet scaling: run the same chunked budget at N ∈ {1, 2, 4} shards —
   each shard a domain running [Fleet.run_shard] with traces off (the
   trace sink is process-global; trace byte-identity is the test
   suite's sequential drill) — then merge each root and require the
   merged record byte-identical to the N=1 reference. Inequivalence is
   fatal: this is the bench-level shard-invariance drill the v10
   schema records. Wall-clock per N and the merge cost land in the
   JSON summary as the scaling curve. *)

type fleet_point = { fl_shards : int; fl_seconds : float; fl_speedup : float }

type fleet_summary = {
  fl_budget : int;
  fl_chunk : int;
  fl_cores : int;
      (* recommended domain count: the scaling ceiling. On a one-core
         box the curve measures pure sharding overhead, not speedup. *)
  fl_points : fleet_point list;
  fl_merge_seconds : float;
}

let run_fleet_study () =
  let budget = env_int "LLM4FP_FLEET_BUDGET" 60 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  let chunk = 10 in
  Printf.printf
    "== fleet scaling (budget %d, chunk %d, shards 1/2/4, %d core(s)) ==\n"
    budget chunk
    (Domain.recommended_domain_count ());
  (* everything the merge exposes, as comparable bytes *)
  let merged_bytes (m : Harness.Fleet.merged) =
    String.concat "\n"
      (List.map
         (fun o -> Obs.Json.to_string (Harness.Fleet.outcome_to_json o))
         m.Harness.Fleet.chunks
      @ [ Obs.Json.to_string
            (Difftest.Stats.to_json m.Harness.Fleet.merged_stats);
          Obs.Json.to_string
            (Obs.Coverage.to_json m.Harness.Fleet.merged_coverage) ]
      @ List.map
          (fun c -> Obs.Json.to_string (Difftest.Case.to_json c))
          m.Harness.Fleet.cases)
  in
  let merge_seconds = ref 0.0 in
  let run n =
    let root = tmp (Printf.sprintf "fleet-n%d" n) in
    rm_rf root;
    Util.Durable.mkdir_p root;
    let t0 = Unix.gettimeofday () in
    let domains =
      List.init n (fun i ->
          Domain.spawn (fun () ->
              Harness.Fleet.run_shard ~chunk ~trace:false ~root
                ~spec:{ Harness.Shard.index = i; count = n }
                ~budget ~seed Harness.Approach.Llm4fp))
    in
    List.iter
      (fun d ->
        match Domain.join d with
        | Ok _ -> ()
        | Error msg ->
          Printf.eprintf "FATAL: fleet shard failed at N=%d: %s\n" n msg;
          exit 1)
      domains;
    let seconds = Unix.gettimeofday () -. t0 in
    let t1 = Unix.gettimeofday () in
    let merged =
      match Harness.Fleet.load ~root with
      | Ok m -> m
      | Error msg ->
        Printf.eprintf "FATAL: fleet merge failed at N=%d: %s\n" n msg;
        exit 1
    in
    merge_seconds := Unix.gettimeofday () -. t1;
    let bytes = merged_bytes merged in
    rm_rf root;
    (seconds, bytes)
  in
  let t1_seconds, reference = run 1 in
  let points =
    { fl_shards = 1; fl_seconds = t1_seconds; fl_speedup = 1.0 }
    :: List.map
         (fun n ->
           let seconds, bytes = run n in
           if bytes <> reference then begin
             Printf.eprintf
               "FATAL: merged fleet record at N=%d differs from the \
                single-process reference (budget %d, seed %d)\n"
               n budget seed;
             exit 1
           end;
           {
             fl_shards = n;
             fl_seconds = seconds;
             fl_speedup = (if seconds > 0.0 then t1_seconds /. seconds else 0.0);
           })
         [ 2; 4 ]
  in
  List.iter
    (fun p ->
      Printf.printf "  N=%d: %.2fs (speedup %.2fx)\n" p.fl_shards p.fl_seconds
        p.fl_speedup)
    points;
  Printf.printf
    "  merged records byte-identical at every N (merge %.3fs)\n\n"
    !merge_seconds;
  {
    fl_budget = budget;
    fl_chunk = chunk;
    fl_cores = Domain.recommended_domain_count ();
    fl_points = points;
    fl_merge_seconds = !merge_seconds;
  }

(* ------------------------------------------------------------------ *)
(* Bandit ensemble: the five-arm bandit campaign against each fixed arm
   at the same budget and seed, compared on inconsistencies per
   simulated second. Two determinism properties are asserted fatally
   before any rate is printed: the job count must not move a single
   bandit draw (outcome signature and serialized posterior identical at
   jobs 1 and N), and a bandit campaign crashed at its second
   checkpoint and resumed must finish with the identical outcome and
   posterior. The ablation itself — bandit vs best fixed arm — is the
   reported result. *)

type bandit_arm_row = {
  b_arm : string;
  b_pulls : int;
  b_incons : int;
  b_sim_s : float;
  b_rate : float;
}

type bandit_summary = {
  b_budget : int;
  b_arms : bandit_arm_row list;
  b_bandit_rate : float;
  b_fixed : (string * float) list;
  b_best_fixed : string;
  b_best_fixed_rate : float;
  b_delta : float;
  b_resume_equivalent : bool;
  b_jobs_equivalent : bool;
}

let run_bandit ~jobs () =
  let budget = env_int "LLM4FP_BANDIT_BUDGET" 200 in
  let seed = env_int "LLM4FP_SEED" 20250704 in
  Printf.printf
    "== bandit ensemble: ablation vs fixed arms (budget %d, %d jobs) ==\n"
    budget jobs;
  let posterior (o : Harness.Campaign.outcome) =
    match o.Harness.Campaign.bandit with
    | Some b -> Obs.Json.to_string (Harness.Bandit.to_json b)
    | None ->
      Printf.eprintf "FATAL: bandit campaign returned no bandit state\n";
      exit 1
  in
  let observe jobs =
    let o = Harness.Campaign.run ~budget ~jobs ~seed Harness.Approach.Bandit in
    (o, posterior o)
  in
  let o, post = observe jobs in
  let b_jobs_equivalent =
    jobs = 1
    ||
    let o1, post1 = observe 1 in
    Harness.Campaign.signature o1 = Harness.Campaign.signature o
    && post1 = post
  in
  if not b_jobs_equivalent then begin
    Printf.eprintf
      "FATAL: bandit campaign differs between --jobs 1 and --jobs %d \
       (budget %d, seed %d)\n"
      jobs budget seed;
    exit 1
  end;
  (* Crash drill: die mid-write at the second snapshot, resume from the
     first, and require the finished posterior to match byte for byte. *)
  let interval = max 2 ((budget / 4) + 1) in
  let crash_dir = tmp "bandit" in
  rm_rf crash_dir;
  Exec.Faults.arm
    [ { Exec.Faults.stage = Exec.Faults.Checkpoint_write;
        hit = 2;
        action = Exec.Faults.Crash } ];
  (match
     Harness.Campaign.run ~budget ~jobs ~checkpoint:(crash_dir, interval)
       ~seed Harness.Approach.Bandit
   with
  | exception Exec.Faults.Crash_injected _ -> ()
  | _ ->
    Printf.eprintf "FATAL: injected bandit checkpoint crash never fired\n";
    exit 1);
  Exec.Faults.disarm ();
  let resumed =
    match Checkpoint.load ~dir:crash_dir with
    | Error msg ->
      Printf.eprintf "FATAL: surviving bandit checkpoint unreadable: %s\n" msg;
      exit 1
    | Ok snap ->
      Harness.Campaign.run ~budget ~jobs ~resume:snap ~seed
        Harness.Approach.Bandit
  in
  rm_rf crash_dir;
  let b_resume_equivalent =
    Harness.Campaign.signature resumed = Harness.Campaign.signature o
    && posterior resumed = post
  in
  if not b_resume_equivalent then begin
    Printf.eprintf
      "FATAL: resumed bandit campaign diverged from the uninterrupted run \
       (budget %d, seed %d, crash at checkpoint 2)\n"
      budget seed;
    exit 1
  end;
  (* The ablation: each fixed arm at the identical budget and seed. *)
  let rate (o : Harness.Campaign.outcome) =
    let s = o.Harness.Campaign.sim_seconds in
    if s > 0.0 then
      float_of_int (Difftest.Stats.total_inconsistencies o.Harness.Campaign.stats)
      /. s
    else 0.0
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
  let arms =
    match o.Harness.Campaign.bandit with
    | None -> []
    | Some b ->
      List.map
        (fun (name, pulls, incons, sim_s, r) ->
          { b_arm = name; b_pulls = pulls; b_incons = incons;
            b_sim_s = sim_s; b_rate = r })
        (Harness.Bandit.table b)
  in
  Printf.printf "  per-arm allocation (bandit campaign):\n";
  List.iter
    (fun r ->
      Printf.printf "    %-8s %5d pull(s)  %5d incons  %8.1f sim-s  %.4f/s\n"
        r.b_arm r.b_pulls r.b_incons r.b_sim_s r.b_rate)
    arms;
  let bandit_rate = rate o in
  Printf.printf "  fixed arms at the same budget:\n";
  List.iter
    (fun (n, r) -> Printf.printf "    %-14s %.4f incons/sim-s\n" n r)
    fixed;
  Printf.printf
    "  bandit: %.4f incons/sim-s vs best fixed arm %s at %.4f (%+.4f); \
     jobs and kill/resume drills byte-identical\n\n"
    bandit_rate best_fixed best_fixed_rate
    (bandit_rate -. best_fixed_rate);
  {
    b_budget = budget;
    b_arms = arms;
    b_bandit_rate = bandit_rate;
    b_fixed = fixed;
    b_best_fixed = best_fixed;
    b_best_fixed_rate = best_fixed_rate;
    b_delta = bandit_rate -. best_fixed_rate;
    b_resume_equivalent;
    b_jobs_equivalent;
  }

(* ------------------------------------------------------------------ *)
(* Flamegraph export: the span tree collected across the whole bench
   run must export as well-formed Chrome trace-event JSON — parseable,
   every event a complete ("ph":"X") slice with the required fields,
   and every child slice nested inside its parent's interval. Asserted
   fatally; the event count lands in the JSON summary. *)

let validate_flame () =
  let flame = Obs.Span.flame () in
  let reparsed =
    match Obs.Json.parse (Obs.Json.to_string flame) with
    | Ok v -> v
    | Error msg ->
      Printf.eprintf "FATAL: flame export is not valid JSON: %s\n" msg;
      exit 1
  in
  let events =
    match Obs.Json.member "traceEvents" reparsed with
    | Some (Obs.Json.List evs) -> evs
    | _ ->
      Printf.eprintf "FATAL: flame export lacks a traceEvents list\n";
      exit 1
  in
  let fail fmt = Printf.eprintf fmt; exit 1 in
  let num = function
    | Some (Obs.Json.Float f) -> f
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> fail "FATAL: flame event has a missing/non-numeric ts or dur\n"
  in
  List.iter
    (fun ev ->
      (match Obs.Json.member "ph" ev with
      | Some (Obs.Json.String "X") -> ()
      | _ -> fail "FATAL: flame event is not a complete (\"X\") slice\n");
      (match Obs.Json.member "name" ev with
      | Some (Obs.Json.String _) -> ()
      | _ -> fail "FATAL: flame event lacks a name\n");
      let ts = num (Obs.Json.member "ts" ev) in
      let dur = num (Obs.Json.member "dur" ev) in
      if ts < 0.0 || dur < 0.0 then
        fail "FATAL: flame event has a negative ts or dur\n";
      match (Obs.Json.member "pid" ev, Obs.Json.member "tid" ev) with
      | Some (Obs.Json.Int _), Some (Obs.Json.Int _) -> ()
      | _ -> fail "FATAL: flame event lacks pid/tid\n")
    events;
  (* Nesting: walk the span tree alongside the flat event list — each
     tree node produced exactly one slice in DFS order, and a child's
     [ts, ts+dur) interval must lie within its parent's. *)
  let slices = ref events in
  let next () =
    match !slices with
    | [] -> fail "FATAL: flame export has fewer slices than tree nodes\n"
    | s :: rest ->
      slices := rest;
      (num (Obs.Json.member "ts" s), num (Obs.Json.member "dur" s))
  in
  let rec walk (n : Obs.Span.node) =
    let ts, dur = next () in
    List.iter
      (fun (child : Obs.Span.node) ->
        let cts, cdur = walk child in
        if cts < ts -. 0.5 || cts +. cdur > ts +. dur +. 0.5 then
          fail "FATAL: flame slice escapes its parent's interval\n")
      n.Obs.Span.n_children;
    (ts, dur)
  in
  List.iter (fun n -> ignore (walk n)) (Obs.Span.tree ());
  if !slices <> [] then
    fail "FATAL: flame export has more slices than tree nodes\n";
  List.length events

(* ------------------------------------------------------------------ *)
(* Machine-readable summary: per-phase span aggregates next to the
   end-to-end totals, so stored BENCH_*.json files can track where the
   time goes (generation / compile / interp / compare / CodeBLEU), not
   just how much of it there is. *)

let json_summary ~budget ~seed ~jobs ~tables_seconds ~end_to_end_seconds ~micro
    ~forensics ~reduction ~checkpoint ~watch ~throughput ~coverage ~fleet
    ~bandit ~flame_events =
  let phase (r : Obs.Span.row) =
    Obs.Json.Obj
      [ ("label", Obs.Json.String r.Obs.Span.label);
        ("count", Obs.Json.Int r.Obs.Span.count);
        ("total_s", Obs.Json.Float r.Obs.Span.total_s);
        ("mean_s", Obs.Json.Float r.Obs.Span.mean_s);
        ("max_s", Obs.Json.Float r.Obs.Span.max_s);
        ("sim_s", Obs.Json.Float r.Obs.Span.sim_s) ]
  in
  (* [counter] is get-or-create by name, so reading through it never
     fails — an instrument the run didn't touch just reads 0. *)
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Obs.Json.Obj
    ([ ("schema", Obs.Json.String "llm4fp-bench/11");
       ("budget", Obs.Json.Int budget);
       ("seed", Obs.Json.Int seed);
       ("jobs", Obs.Json.Int jobs);
       ( "engine",
         Obs.Json.String
           (Compiler.Driver.engine_name (Compiler.Driver.engine ())) ) ]
    @ (match tables_seconds with
      | None -> []
      | Some s -> [ ("tables_seconds", Obs.Json.Float s) ])
    @ [ ("end_to_end_seconds", Obs.Json.Float end_to_end_seconds);
        ( "frontend_cache",
          Obs.Json.Obj
            [ ("runs", Obs.Json.Int (counter "compiler.frontend.runs"));
              ("hits", Obs.Json.Int (counter "compiler.frontend.cache_hits"))
            ] );
        ( "exec_dedup",
          Obs.Json.Obj
            [ ("hits", Obs.Json.Int (counter "exec.dedup.hits"));
              ("misses", Obs.Json.Int (counter "exec.dedup.misses")) ] ) ]
    @ (match forensics with
      | None -> []
      | Some f ->
        [ ( "record_overhead_seconds",
            Obs.Json.Float (f.f_with_s -. f.f_without_s) );
          ( "case_archive",
            Obs.Json.Obj
              [ ("cases", Obs.Json.Int f.f_cases);
                ("cross", Obs.Json.Int f.f_cross);
                ("within", Obs.Json.Int f.f_within);
                ("duplicates", Obs.Json.Int f.f_duplicates) ] ) ])
    @ (match reduction with
      | None -> []
      | Some r ->
        [ ( "reduction",
            Obs.Json.Obj
              [ ("cases", Obs.Json.Int r.r_cases);
                ("strictly_smaller", Obs.Json.Int r.r_strictly_smaller);
                ("shrink_ratio_mean", Obs.Json.Float r.r_ratio_mean);
                ("shrink_ratio_min", Obs.Json.Float r.r_ratio_min);
                ("shrink_ratio_max", Obs.Json.Float r.r_ratio_max);
                ("oracle_calls", Obs.Json.Int r.r_oracle_calls);
                ("seconds", Obs.Json.Float r.r_seconds) ] ) ])
    @ (match checkpoint with
      | None -> []
      | Some c ->
        [ ( "checkpoint",
            Obs.Json.Obj
              [ ( "overhead_seconds",
                  Obs.Json.Float (c.c_with_s -. c.c_without_s) );
                ("interval", Obs.Json.Int c.c_interval);
                ("checkpoints", Obs.Json.Int c.c_checkpoints);
                ("resume_equivalent", Obs.Json.Bool c.c_resume_equivalent) ]
          ) ])
    @ (match watch with
      | None -> []
      | Some w ->
        [ ( "watch",
            Obs.Json.Obj
              [ ( "overhead_seconds",
                  Obs.Json.Float (w.w_with_s -. w.w_without_s) );
                ("polls", Obs.Json.Int w.w_polls);
                ("events_streamed", Obs.Json.Int w.w_events) ] ) ])
    @ (match throughput with
      | None -> []
      | Some t ->
        [ ( "interp_throughput",
            Obs.Json.Obj
              [ ("inputs", Obs.Json.Int t.t_inputs);
                ("tree_programs_per_sec", Obs.Json.Float t.t_tree_pps);
                ("vm_programs_per_sec", Obs.Json.Float t.t_vm_pps);
                ("tree_fp_ops_per_sec", Obs.Json.Float t.t_tree_ops_ps);
                ("vm_fp_ops_per_sec", Obs.Json.Float t.t_vm_ops_ps);
                ("speedup", Obs.Json.Float t.t_speedup) ] ) ])
    @ (match coverage with
      | None -> []
      | Some c ->
        [ ("coverage_cells", Obs.Json.Int c.cov_cells);
          ("novel_per_sim_s", Obs.Json.Float c.cov_novel_per_sim_s) ]
        @
        match c.cov_plateau_at with
        | None -> []
        | Some at -> [ ("plateau_at_sim_s", Obs.Json.Float at) ])
    @ (match fleet with
      | None -> []
      | Some f ->
        [ ( "fleet",
            Obs.Json.Obj
              [ ("budget", Obs.Json.Int f.fl_budget);
                ("chunk", Obs.Json.Int f.fl_chunk);
                ("cores", Obs.Json.Int f.fl_cores);
                ( "scaling",
                  Obs.Json.List
                    (List.map
                       (fun p ->
                         Obs.Json.Obj
                           [ ("shards", Obs.Json.Int p.fl_shards);
                             ("seconds", Obs.Json.Float p.fl_seconds);
                             ("speedup", Obs.Json.Float p.fl_speedup) ])
                       f.fl_points) );
                ("merge_seconds", Obs.Json.Float f.fl_merge_seconds);
                (* a divergent merge is fatal above; recorded so stored
                   summaries say the shard-invariance drill ran *)
                ("identical", Obs.Json.Bool true) ] ) ])
    @ (match bandit with
      | None -> []
      | Some b ->
        [ ( "bandit",
            Obs.Json.Obj
              [ ("budget", Obs.Json.Int b.b_budget);
                ( "arms",
                  Obs.Json.List
                    (List.map
                       (fun r ->
                         Obs.Json.Obj
                           [ ("arm", Obs.Json.String r.b_arm);
                             ("pulls", Obs.Json.Int r.b_pulls);
                             ("inconsistencies", Obs.Json.Int r.b_incons);
                             ("sim_seconds", Obs.Json.Float r.b_sim_s);
                             ("rate", Obs.Json.Float r.b_rate) ])
                       b.b_arms) );
                ("bandit_rate", Obs.Json.Float b.b_bandit_rate);
                ( "fixed",
                  Obs.Json.List
                    (List.map
                       (fun (n, r) ->
                         Obs.Json.Obj
                           [ ("approach", Obs.Json.String n);
                             ("rate", Obs.Json.Float r) ])
                       b.b_fixed) );
                ("best_fixed", Obs.Json.String b.b_best_fixed);
                ("best_fixed_rate", Obs.Json.Float b.b_best_fixed_rate);
                ("delta_vs_best_fixed", Obs.Json.Float b.b_delta);
                (* both drills are fatal above; recorded so stored
                   summaries say they ran and passed *)
                ("resume_equivalent", Obs.Json.Bool b.b_resume_equivalent);
                ("jobs_equivalent", Obs.Json.Bool b.b_jobs_equivalent) ] ) ])
    @ [ ("flame_events", Obs.Json.Int flame_events);
        ("phases", Obs.Json.List (List.map phase (Obs.Span.summary ()))) ]
    @
    match micro with
    | None -> []
    | Some rows ->
      [ ( "micro_ns_per_call",
          Obs.Json.Obj
            (List.map (fun (name, ns) -> (name, Obs.Json.Float ns)) rows) ) ])

let () =
  let t_start = Unix.gettimeofday () in
  let jobs = env_int "LLM4FP_JOBS" 1 in
  let micro =
    if not (env_flag "LLM4FP_SKIP_MICRO") then Some (run_micro ()) else None
  in
  (* Span timing for the campaign half: phase aggregates end up in the
     JSON summary (and cost a few ns per span while enabled). *)
  Obs.Span.set_enabled true;
  if jobs > 1 then assert_jobs_deterministic ~jobs;
  let tables_seconds =
    if not (env_flag "LLM4FP_SKIP_TABLES") then Some (run_tables ~jobs ())
    else None
  in
  if not (env_flag "LLM4FP_SKIP_ABLATION") then run_ablation ~jobs ();
  if not (env_flag "LLM4FP_SKIP_FP32") then run_fp32 ();
  let forensics =
    if not (env_flag "LLM4FP_SKIP_FORENSICS") then Some (run_forensics ~jobs ())
    else None
  in
  let reduction =
    if not (env_flag "LLM4FP_SKIP_REDUCE") then Some (run_reduce ()) else None
  in
  let checkpoint =
    if not (env_flag "LLM4FP_SKIP_CHECKPOINT") then
      Some (run_checkpoint ~jobs ())
    else None
  in
  let watch =
    if not (env_flag "LLM4FP_SKIP_WATCH") then Some (run_watch ~jobs ())
    else None
  in
  let throughput =
    if not (env_flag "LLM4FP_SKIP_THROUGHPUT") then Some (run_throughput ())
    else None
  in
  let coverage =
    if not (env_flag "LLM4FP_SKIP_COVERAGE") then Some (run_coverage ~jobs ())
    else None
  in
  let fleet =
    if not (env_flag "LLM4FP_SKIP_FLEET") then Some (run_fleet_study ())
    else None
  in
  let bandit =
    if not (env_flag "LLM4FP_SKIP_BANDIT") then Some (run_bandit ~jobs ())
    else None
  in
  let flame_events = validate_flame () in
  Printf.printf "(flame export valid: %d slice(s))\n" flame_events;
  match Sys.getenv_opt "LLM4FP_JSON_OUT" with
  | None -> ()
  | Some path ->
    let budget = env_int "LLM4FP_BUDGET" 1000 in
    let seed = env_int "LLM4FP_SEED" 20250704 in
    let end_to_end_seconds = Unix.gettimeofday () -. t_start in
    Util.Durable.write_string ~path
      (Obs.Json.to_string
         (json_summary ~budget ~seed ~jobs ~tables_seconds
            ~end_to_end_seconds ~micro ~forensics ~reduction ~checkpoint
            ~watch ~throughput ~coverage ~fleet ~bandit ~flame_events)
      ^ "\n");
    Printf.printf "(wrote JSON summary to %s)\n" path
