(* The per-layer ledger of a traced run.

   The workload's recorded inputs (the programs and input vectors its
   campaigns produced, the suite its tables render) are replayed through
   each layer's public function, one layer at a time, with the clock and
   [Gc.quick_stat] read around every call (or every per-program batch of
   calls). Layers a workload's rounds never call are still replayed on
   its inputs, so every layer reports a cost; their per-round call count
   is 0. Replays are capped so a traced run stays within its budget. *)

type layer = {
  name : string;  (** the public function timed *)
  meter : Meter.t;
  mutable round_calls : int;  (** calls one round of the workload makes *)
  mutable extras : (string * string * float) list;
      (** [(suffix, unit, value)], in output order *)
}

let layer_names =
  [ "Llm.Client.generate"; "Gen.Varity.generate"; "Gen.Grow.grow";
    "Cparse.Parse.program"; "Analysis.Validate.check";
    "Compiler.Driver.front_end"; "Compiler.Driver.back_end";
    "Compiler.Driver.execute"; "Difftest.Run.test"; "Obs.Coverage.record";
    "Difftest.Recorder.record"; "Checkpoint.write";
    "Difftest.Recorder.load_dir"; "Checkpoint.load";
    "Diversity.Codebleu.summarize"; "Diversity.Codebleu.symmetric";
    "Diversity.Clones.analyze"; "Harness.Experiments.other_sections" ]

let create () =
  List.map
    (fun name -> { name; meter = Meter.create (); round_calls = 0; extras = [] })
    layer_names

let find layers name = List.find (fun l -> l.name = name) layers

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Every [k]-th element, so that at most [cap] remain. *)
let stride cap xs =
  let n = List.length xs in
  if n <= cap then xs
  else
    let k = (n + cap - 1) / cap in
    List.filteri (fun i _ -> i mod k = 0) xs

let counter_value snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let counter_delta before after name =
  counter_value after name - counter_value before name

let file_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let max_cases = 240
let max_prompts = 240
let max_recorded = 400
let checkpoint_writes = 10
let reloads = 3
let max_summaries = 240
let symmetric_pairs = 1500
let section_renders = 3

(* Replay the workload's inputs through every layer. Returns the layers
   and the number of replayed operations that failed a check. *)
let replay ~seed ~workdir ~(outcomes : Harness.Campaign.outcome list)
    ~(suite : Harness.Experiments.suite) =
  let layers = create () in
  let m name = (find layers name).meter in
  let set name extras = (find layers name).extras <- extras in
  let failed = ref 0 in
  let cases = stride max_cases (List.concat_map (fun (o : Harness.Campaign.outcome) -> o.cases) outcomes) in
  let programs = List.map fst cases in
  (* Generation: the prompt shapes each approach's campaign sends. *)
  let prompts =
    stride max_prompts
      (List.concat_map
         (fun (o : Harness.Campaign.outcome) ->
           List.mapi
             (fun i (p : Lang.Ast.program) ->
               let precision = p.precision in
               match o.approach with
               | Harness.Approach.Varity -> None
               | Direct_prompt -> Some (Llm.Prompt.Direct { precision })
               | Grammar_guided -> Some (Llm.Prompt.Grammar { precision })
               | Llm4fp | Bandit ->
                 if i mod 2 = 0 then Some (Llm.Prompt.Grammar { precision })
                 else Some (Llm.Prompt.Mutate { precision; example = p }))
             o.programs
           |> List.filter_map Fun.id)
         outcomes)
  in
  let client = Llm.Client.create ~seed:(seed lxor 0x5eed) () in
  let sources =
    List.map
      (fun prompt ->
        (Meter.measure (m "Llm.Client.generate") (fun () ->
             Llm.Client.generate client prompt))
          .Llm.Client.source)
      prompts
  in
  let rng = Util.Rng.of_int seed in
  List.iter
    (fun _ ->
      ignore (Meter.measure (m "Gen.Varity.generate") (fun () -> Gen.Varity.generate rng)))
    programs;
  List.iter
    (fun p -> ignore (Meter.measure (m "Gen.Grow.grow") (fun () -> Gen.Grow.grow rng p)))
    programs;
  (* Front end of the generator output: parse, then validate. *)
  let parsed =
    List.filter_map
      (fun src ->
        match Meter.measure (m "Cparse.Parse.program") (fun () -> Cparse.Parse.program src) with
        | Ok p -> Some p
        | Error _ -> None)
      sources
  in
  let source_bytes = List.fold_left (fun acc s -> acc + String.length s) 0 sources in
  let parse = m "Cparse.Parse.program" in
  set "Cparse.Parse.program"
    [ ("kbytes_per_s", "kB/s",
       if parse.seconds > 0.0 then float_of_int source_bytes /. 1024.0 /. parse.seconds else 0.0);
      ("ok_ratio", "ratio", ratio (List.length parsed) (List.length sources)) ];
  let valid =
    List.length
      (List.filter
         (fun p ->
           Result.is_ok (Meter.measure (m "Analysis.Validate.check") (fun () -> Analysis.Validate.check p)))
         parsed)
  in
  set "Analysis.Validate.check" [ ("ok_ratio", "ratio", ratio valid (List.length parsed)) ];
  (* Compiler stages, one program at a time: both front ends, every
     configuration's back end, then one execution per distinct binary. *)
  let configs = Compiler.Config.all () in
  let ir_nodes = ref 0 and binaries = ref 0 and fp_ops = ref 0 in
  List.iter
    (fun (program, inputs) ->
      let fronts = Compiler.Driver.fronts program in
      let front target =
        Meter.measure (m "Compiler.Driver.front_end") (fun () ->
            Compiler.Driver.front_end fronts target)
      in
      let host = front `Host and device = front `Device in
      let built =
        List.filter_map
          (fun config ->
            match (match Compiler.Driver.target_of config with `Host -> host | `Device -> device) with
            | Error _ -> None
            | Ok f ->
              let b = Meter.measure (m "Compiler.Driver.back_end") (fun () -> Compiler.Driver.back_end config f) in
              ir_nodes := !ir_nodes + b.Compiler.Driver.work;
              incr binaries;
              Some b)
          configs
      in
      let distinct =
        List.fold_left
          (fun acc (b : Compiler.Driver.binary) ->
            let key = (b.ir, Compiler.Config.runtime b.config) in
            if List.exists (fun (k, _) -> Stdlib.compare k key = 0) acc then acc
            else (key, b) :: acc)
          [] built
      in
      List.iter
        (fun (_, b) ->
          match Meter.measure (m "Compiler.Driver.execute") (fun () -> Compiler.Driver.execute b inputs) with
          | out -> fp_ops := !fp_ops + out.Irsim.Interp.fp_ops
          | exception Irsim.Interp.Trap _ -> ())
        (List.rev distinct))
    cases;
  set "Compiler.Driver.back_end" [ ("ir_nodes_per_binary", "count", ratio !ir_nodes !binaries) ];
  (* The whole difftest, with the library's own counters around it. *)
  let before = Obs.Metrics.snapshot () in
  let results =
    List.mapi
      (fun i (program, inputs) ->
        let r =
          Meter.measure (m "Difftest.Run.test") (fun () ->
              Difftest.Run.test ~configs ~jobs:1 program inputs)
        in
        (Difftest.Run.coverage_keys r, Difftest.Case.of_result ~seed ~slot:(i + 1) ~program ~inputs r))
      cases
  in
  let after = Obs.Metrics.snapshot () in
  let d = counter_delta before after in
  let tests = d "difftest.programs" in
  let front_runs = d "compiler.frontend.runs" and front_hits = d "compiler.frontend.cache_hits" in
  let execs = d "exec.dedup.misses" and exec_hits = d "exec.dedup.hits" in
  let backs = d "compiler.compile.ok" in
  set "Compiler.Driver.front_end"
    [ ("runs_per_difftest", "count", ratio front_runs tests);
      ("cache_hit_ratio", "ratio", ratio front_hits (front_runs + front_hits)) ];
  let exec = m "Compiler.Driver.execute" in
  set "Compiler.Driver.execute"
    [ ("execs_per_difftest", "count", ratio execs tests);
      ("dedup_hit_ratio", "ratio", ratio exec_hits (execs + exec_hits));
      ("fp_ops_per_s", "1/s", if exec.seconds > 0.0 then float_of_int !fp_ops /. exec.seconds else 0.0) ];
  (* Derived: a difftest's time minus the front-end, back-end and
     execution calls it makes, at their replayed per-call costs. *)
  let per_test n layer = ratio n tests *. Meter.us_per_call (m layer) in
  set "Difftest.Run.test"
    [ ("compare_us_per_call", "us",
       Meter.us_per_call (m "Difftest.Run.test")
       -. per_test front_runs "Compiler.Driver.front_end"
       -. per_test backs "Compiler.Driver.back_end"
       -. per_test execs "Compiler.Driver.execute") ];
  (* Coverage ledger. *)
  let ledger = Obs.Coverage.create () in
  List.iteri
    (fun i (keys, _) ->
      if keys <> [] then
        Meter.measure (m "Obs.Coverage.record") ~calls:(List.length keys) (fun () ->
            List.iter
              (fun key ->
                ignore
                  (Obs.Coverage.record ledger ~slot:(i + 1) ~strategy:"replay"
                     ~sim_s:(float_of_int i) key))
              keys))
    results;
  (* Durable writes and their read-back. *)
  let cases_dir = Filename.concat workdir "replay-cases" in
  let recorder = Difftest.Recorder.create ~dir:cases_dir in
  let offered = ref 0 in
  List.iter
    (fun (_, found) ->
      let room = max_recorded - !offered in
      let found = List.filteri (fun i _ -> i < room) found in
      if found <> [] then begin
        offered := !offered + List.length found;
        Meter.measure (m "Difftest.Recorder.record") ~calls:(List.length found) (fun () ->
            List.iter (fun c -> ignore (Difftest.Recorder.record recorder c)) found)
      end)
    results;
  let recorded = Difftest.Recorder.count recorder in
  set "Difftest.Recorder.record"
    [ ("bytes_per_case", "B", ratio (file_bytes cases_dir) recorded);
      ("duplicate_ratio", "ratio", ratio (Difftest.Recorder.duplicates recorder) !offered) ];
  let biggest =
    List.fold_left
      (fun (best : Harness.Campaign.outcome) (o : Harness.Campaign.outcome) ->
        if List.length o.cases > List.length best.cases then o else best)
      (List.hd outcomes) outcomes
  in
  (* A snapshot of the largest campaign, with an LLM session that has
     answered as many prompts as that campaign sent. *)
  let session = Llm.Client.create ~seed:(seed lxor 0x5eed) () in
  for _ = 1 to biggest.budget do
    ignore (Llm.Client.generate session (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }))
  done;
  let snapshot =
    {
      Checkpoint.seed;
      approach = Harness.Approach.name biggest.approach;
      budget = biggest.budget;
      precision = "fp64";
      interval = biggest.budget;
      next_slot = biggest.budget;
      generation_failures = biggest.generation_failures;
      sim_seconds = biggest.sim_seconds;
      rng = Util.Rng.state (Util.Rng.of_int seed);
      input_rng = Util.Rng.state (Util.Rng.of_int (seed + 1));
      trace_offset = None;
      bandit = Option.map Harness.Bandit.to_json biggest.bandit;
      grow_seeds = [];
      client = Llm.Client.snapshot session;
      stats = biggest.stats;
      coverage = biggest.coverage;
      recorder = None;
      slots =
        List.map
          (fun (program, inputs) -> { Checkpoint.program; inputs; feedback = false })
          biggest.cases;
    }
  in
  let ckpt_dir = Filename.concat workdir "replay-ckpt" in
  Util.Durable.mkdir_p ckpt_dir;
  for _ = 1 to checkpoint_writes do
    Meter.measure (m "Checkpoint.write") (fun () -> Checkpoint.write ~dir:ckpt_dir snapshot)
  done;
  set "Checkpoint.write"
    [ ("kbytes_per_write", "kB",
       float_of_int (Unix.stat (Checkpoint.path ~dir:ckpt_dir)).Unix.st_size /. 1024.0) ];
  for _ = 1 to reloads do
    (match Meter.measure (m "Difftest.Recorder.load_dir") (fun () -> Difftest.Recorder.load_dir cases_dir) with
    | Ok loaded when List.length loaded = recorded -> ()
    | Ok _ | Error _ -> incr failed);
    match Meter.measure (m "Checkpoint.load") (fun () -> Checkpoint.load ~dir:ckpt_dir) with
    | Ok snap when List.length snap.Checkpoint.slots = List.length biggest.cases -> ()
    | Ok _ | Error _ -> incr failed
  done;
  (* Diversity scoring. *)
  let summaries =
    Array.of_list
      (List.map
         (fun p -> Meter.measure (m "Diversity.Codebleu.summarize") (fun () -> Diversity.Codebleu.summarize p))
         (stride max_summaries programs))
  in
  let n = Array.length summaries in
  if n >= 2 then begin
    let pick = Util.Rng.of_int (seed + 2) in
    for _ = 1 to symmetric_pairs do
      let i = Util.Rng.int pick n in
      let j = (i + 1 + Util.Rng.int pick (n - 1)) mod n in
      ignore
        (Meter.measure (m "Diversity.Codebleu.symmetric") (fun () ->
             Diversity.Codebleu.symmetric summaries.(i) summaries.(j)))
    done
  end;
  let clone_programs = ref 0 in
  List.iter
    (fun (o : Harness.Campaign.outcome) ->
      clone_programs := !clone_programs + List.length o.programs;
      ignore (Meter.measure (m "Diversity.Clones.analyze") (fun () -> Diversity.Clones.analyze o.programs)))
    outcomes;
  let clones = m "Diversity.Clones.analyze" in
  set "Diversity.Clones.analyze"
    [ ("us_per_program", "us",
       if !clone_programs = 0 then 0.0 else clones.seconds *. 1e6 /. float_of_int !clone_programs) ];
  (* Every Experiments section except Table 3, rendered as text. *)
  for _ = 1 to section_renders do
    ignore
      (Meter.measure (m "Harness.Experiments.other_sections") (fun () ->
           let open Harness.Experiments in
           [ summary suite; table1 (); table2 suite; figure3 suite; table4 suite;
             table5 suite; table6 suite; feature_statistics suite; bandit_ablation suite ]))
  done;
  (layers, !failed)

(* Per-round calls of each layer, from the library counters one
   untraced round moved and the campaigns it ran. Validation runs only
   on responses that parse, so its count is derived from the replay's
   parse ratio. *)
let set_round_calls layers ~delta ~(round_outcomes : Harness.Campaign.outcome list) ~static =
  let set name n = (find layers name).round_calls <- n in
  let llm = delta "llm.calls" in
  let pulls arm =
    List.fold_left
      (fun acc (o : Harness.Campaign.outcome) ->
        match (o.approach, o.bandit) with
        | Harness.Approach.Varity, _ when arm = Harness.Bandit.Varity -> acc + o.budget
        | Harness.Approach.Bandit, Some b -> acc + Harness.Bandit.pulls b arm
        | _ -> acc)
      0 round_outcomes
  in
  set "Llm.Client.generate" llm;
  set "Gen.Varity.generate" (pulls Harness.Bandit.Varity);
  set "Gen.Grow.grow" (pulls Harness.Bandit.Grow);
  set "Cparse.Parse.program" llm;
  let parse_ok =
    match List.assoc_opt "ok_ratio" (List.map (fun (k, _, v) -> (k, v)) (find layers "Cparse.Parse.program").extras) with
    | Some r -> r
    | None -> 0.0
  in
  set "Analysis.Validate.check" (int_of_float (Float.round (float_of_int llm *. parse_ok)));
  set "Compiler.Driver.front_end" (delta "compiler.frontend.runs");
  set "Compiler.Driver.back_end" (delta "compiler.compile.ok");
  set "Compiler.Driver.execute" (delta "exec.dedup.misses");
  set "Difftest.Run.test" (delta "difftest.programs");
  set "Obs.Coverage.record"
    (List.fold_left
       (fun acc (o : Harness.Campaign.outcome) -> acc + Obs.Coverage.total_hits o.coverage)
       0 round_outcomes);
  set "Difftest.Recorder.record" (delta "recorder.cases" + delta "recorder.duplicates");
  List.iter (fun (name, n) -> set name n) static

(* Seconds of one round the listed layers account for: calls times the
   replayed per-call cost, with a difftest counted only for its derived
   compare share so nested layers are not counted twice. *)
let attributed_seconds layers =
  List.fold_left
    (fun acc l ->
      let us =
        if l.name = "Difftest.Run.test" then
          match List.find_opt (fun (k, _, _) -> k = "compare_us_per_call") l.extras with
          | Some (_, _, v) -> v
          | None -> 0.0
        else Meter.us_per_call l.meter
      in
      acc +. (float_of_int l.round_calls *. us *. 1e-6))
    0.0 layers
