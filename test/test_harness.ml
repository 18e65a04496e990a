(* Tests for lib/harness: campaigns, time model, experiment rendering. *)

open Helpers

let small_budget = 25

let campaign approach = Harness.Campaign.run ~budget:small_budget ~seed:4242 approach

let test_campaign_accounting () =
  Array.iter
    (fun approach ->
      let o = campaign approach in
      check_int "budget consumed" small_budget
        (Difftest.Stats.n_programs o.Harness.Campaign.stats);
      check_int "programs + failures = budget" small_budget
        (List.length o.Harness.Campaign.programs
        + o.Harness.Campaign.generation_failures);
      check_bool "clock advanced" true (o.Harness.Campaign.sim_seconds > 0.0))
    Harness.Approach.all

let test_campaign_deterministic () =
  let a = campaign Harness.Approach.Llm4fp in
  let b = campaign Harness.Approach.Llm4fp in
  check_int "same inconsistencies"
    (Difftest.Stats.total_inconsistencies a.Harness.Campaign.stats)
    (Difftest.Stats.total_inconsistencies b.Harness.Campaign.stats);
  check_bool "same programs" true
    (List.for_all2 Lang.Ast.equal a.Harness.Campaign.programs
       b.Harness.Campaign.programs);
  check_bool "same simulated time" true
    (a.Harness.Campaign.sim_seconds = b.Harness.Campaign.sim_seconds)

let test_campaign_seed_sensitivity () =
  let a = Harness.Campaign.run ~budget:small_budget ~seed:1 Harness.Approach.Varity in
  let b = Harness.Campaign.run ~budget:small_budget ~seed:2 Harness.Approach.Varity in
  check_bool "different seeds differ" false
    (List.for_all2 Lang.Ast.equal a.Harness.Campaign.programs
       b.Harness.Campaign.programs)

let test_varity_no_llm () =
  let o = campaign Harness.Approach.Varity in
  check_bool "no llm latency" true (o.Harness.Campaign.llm_seconds = 0.0);
  check_int "no generation failures" 0 o.Harness.Campaign.generation_failures

let test_llm_has_latency () =
  let o = campaign Harness.Approach.Grammar_guided in
  check_bool "latency charged" true (o.Harness.Campaign.llm_seconds > 0.0);
  check_bool "llm time within total" true
    (o.Harness.Campaign.llm_seconds <= o.Harness.Campaign.sim_seconds)

let test_feedback_set_only_llm4fp () =
  check_int "grammar-guided has no feedback" 0
    (campaign Harness.Approach.Grammar_guided).Harness.Campaign.successful

let test_approach_names () =
  check_bool "paper spellings" true
    (Array.to_list (Array.map Harness.Approach.name Harness.Approach.all)
    = [ "VARITY"; "DIRECT-PROMPT"; "GRAMMAR-GUIDED"; "LLM4FP" ]);
  check_bool "of_name roundtrip" true
    (Array.for_all
       (fun a -> Harness.Approach.of_name (Harness.Approach.name a) = Some a)
       Harness.Approach.all);
  check_bool "case insensitive" true
    (Harness.Approach.of_name "llm4fp" = Some Harness.Approach.Llm4fp)

let test_time_model_monotonic () =
  let clock = Util.Sim_clock.create () in
  Harness.Time_model.charge_program clock ~work:100 ~ops:1000 ~configs:18;
  let small = Util.Sim_clock.elapsed clock in
  Util.Sim_clock.reset clock;
  Harness.Time_model.charge_program clock ~work:1000 ~ops:10000 ~configs:18;
  check_bool "bigger program costs more" true (Util.Sim_clock.elapsed clock > small)

(* ------------------------------------------------------------------ *)
(* Experiments *)

let suite = lazy (Harness.Experiments.run_suite ~budget:30 ~seed:90125 ())

let test_tables_render () =
  let tables = Harness.Experiments.all_tables ~max_pairs:500 (Lazy.force suite) in
  check_int "ten sections" 10 (List.length tables);
  List.iter
    (fun (name, text) ->
      check_bool (name ^ " non-empty") true (String.length text > 40))
    tables

let test_table1_is_configuration () =
  let t = Harness.Experiments.table1 () in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "00_nofma"; "-ffp-contract=off"; "-fmad=false"; "-use_fast_math";
      "-ffast-math" ]

let test_table2_mentions_all_approaches () =
  let t = Harness.Experiments.table2 (Lazy.force suite) in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "VARITY"; "DIRECT-PROMPT"; "GRAMMAR-GUIDED"; "LLM4FP"; "%" ]

let test_table5_has_pairs () =
  let t = Harness.Experiments.table5 (Lazy.force suite) in
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "gcc, clang"; "gcc, nvcc"; "clang, nvcc"; "03_fastmath"; "Total" ]

let test_table6_within_compilers () =
  let t = Harness.Experiments.table6 (Lazy.force suite) in
  check_bool "no baseline row" false (Util.Text.contains_sub t "00_nofma  ");
  List.iter
    (fun needle -> check_bool needle true (Util.Text.contains_sub t needle))
    [ "V: gcc"; "L: nvcc"; "Total" ]

let test_parallel_suite_byte_identical () =
  (* The whole point of the parallel engine: job count must never change
     results. Render the deterministic tables from a sequential and a
     4-job suite and require byte equality. (summary embeds measured
     real seconds, so it is exactly the section this check must avoid.) *)
  let render jobs =
    let s = Harness.Experiments.run_suite ~budget:15 ~jobs ~seed:424242 () in
    (Harness.Experiments.table2 s, Harness.Experiments.table5 s,
     Harness.Experiments.table3 ~jobs s)
  in
  let t2_seq, t5_seq, t3_seq = render 1 in
  let t2_par, t5_par, t3_par = render 4 in
  Alcotest.(check string) "table2 identical at jobs=1 and jobs=4" t2_seq t2_par;
  Alcotest.(check string) "table5 identical at jobs=1 and jobs=4" t5_seq t5_par;
  (* Table 3 scores the four corpora on separate domains: any state the
     scorer shared across summaries would show here. *)
  Alcotest.(check string) "table3 identical at jobs=1 and jobs=4" t3_seq t3_par

let test_parallel_campaign_same_outcome () =
  let run jobs =
    Harness.Campaign.run ~budget:12 ~jobs ~seed:7 Harness.Approach.Llm4fp
  in
  let seq = run 1 and par = run 4 in
  check_int "same inconsistencies"
    (Difftest.Stats.total_inconsistencies seq.Harness.Campaign.stats)
    (Difftest.Stats.total_inconsistencies par.Harness.Campaign.stats);
  check_int "same comparisons"
    (Difftest.Stats.total_comparisons seq.Harness.Campaign.stats)
    (Difftest.Stats.total_comparisons par.Harness.Campaign.stats);
  check_int "same feedback set" seq.Harness.Campaign.successful
    par.Harness.Campaign.successful;
  check_bool "same programs" true
    (seq.Harness.Campaign.programs = par.Harness.Campaign.programs);
  Alcotest.(check (float 1e-9)) "same simulated clock"
    seq.Harness.Campaign.sim_seconds par.Harness.Campaign.sim_seconds;
  (* the coverage ledger — hits, provenance, rolling window — is part
     of the determinism contract too *)
  Alcotest.(check string) "same coverage ledger at jobs=1 and jobs=4"
    (Obs.Json.to_string (Obs.Coverage.to_json seq.Harness.Campaign.coverage))
    (Obs.Json.to_string (Obs.Coverage.to_json par.Harness.Campaign.coverage))

let test_outcome_accessor () =
  let s = Lazy.force suite in
  Array.iter
    (fun a ->
      check_bool "accessor matches" true
        ((Harness.Experiments.outcome s a).Harness.Campaign.approach = a))
    Harness.Approach.all

let test_fp32_campaign () =
  let o =
    Harness.Campaign.run ~budget:15 ~precision:Lang.Ast.F32 ~seed:55
      Harness.Approach.Llm4fp
  in
  check_bool "programs are single precision" true
    (List.for_all
       (fun (p : Lang.Ast.program) -> p.Lang.Ast.precision = Lang.Ast.F32)
       o.Harness.Campaign.programs);
  check_int "budget consumed" 15 (Difftest.Stats.n_programs o.Harness.Campaign.stats)

let test_fp32_varity_campaign () =
  let o =
    Harness.Campaign.run ~budget:15 ~precision:Lang.Ast.F32 ~seed:56
      Harness.Approach.Varity
  in
  check_bool "varity programs are single precision" true
    (List.for_all
       (fun (p : Lang.Ast.program) -> p.Lang.Ast.precision = Lang.Ast.F32)
       o.Harness.Campaign.programs)

(* ------------------------------------------------------------------ *)
(* Execution engine: the driver runs every binary on the VM, and
   [Irsim.Interp] is the reference it answers to. A bandit campaign
   pulls every generator arm, so its cases cover LLM, grammar and grown
   programs alike. *)

let test_vm_matches_reference () =
  let outcome =
    Harness.Campaign.run ~budget:20 ~seed:31337 Harness.Approach.Bandit
  in
  check_bool "executions compared" true
    (check_vm_matches_reference outcome > 0)

(* ------------------------------------------------------------------ *)
(* Ablation *)

let test_ablation_variants_shape () =
  let variants = Harness.Ablation.variants () in
  check_int "five variants" 5 (List.length variants);
  check_bool "full first" true ((List.hd variants).Harness.Ablation.name = "full");
  List.iter
    (fun (v : Harness.Ablation.variant) ->
      check_int "18 configs each" 18 (List.length v.Harness.Ablation.configs))
    variants

let test_ablation_replay_reduces () =
  let outcome = Harness.Campaign.run ~budget:40 ~seed:777 Harness.Approach.Llm4fp in
  let cases = outcome.Harness.Campaign.cases in
  let replay name =
    let v =
      List.find
        (fun (v : Harness.Ablation.variant) -> v.Harness.Ablation.name = name)
        (Harness.Ablation.variants ())
    in
    Harness.Ablation.replay v cases
  in
  let rate name = Difftest.Stats.inconsistency_rate (replay name) in
  let full_stats = replay "full" in
  let full = Difftest.Stats.inconsistency_rate full_stats in
  (* Failed-generation slots count in the campaign's rate denominator
     but produce no case, so compare on the inconsistency count: the
     replayed corpus must reproduce every campaign finding. *)
  check_int "full replay reproduces the campaign's inconsistencies"
    (Difftest.Stats.total_inconsistencies outcome.Harness.Campaign.stats)
    (Difftest.Stats.total_inconsistencies full_stats);
  check_bool "removing the cuda libm lowers the rate" true
    (rate "no-cuda-libm" < full);
  check_bool "removing fast math cannot raise the rate much" true
    (rate "no-fastmath" <= full +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Bandit ensemble: arm accounting and the byte-identity drills. *)

let bandit_posterior (o : Harness.Campaign.outcome) =
  match o.Harness.Campaign.bandit with
  | None -> "none"
  | Some b -> Obs.Json.to_string (Harness.Bandit.to_json b)

let test_bandit_campaign_accounting () =
  let o = Harness.Campaign.run ~budget:30 ~seed:4242 Harness.Approach.Bandit in
  check_int "budget consumed" 30
    (Difftest.Stats.n_programs o.Harness.Campaign.stats);
  match o.Harness.Campaign.bandit with
  | None -> Alcotest.fail "bandit campaign returned no bandit state"
  | Some b ->
    let table = Harness.Bandit.table b in
    check_int "five arms in the table" 5 (List.length table);
    let pulls = List.fold_left (fun acc (_, p, _, _, _) -> acc + p) 0 table in
    check_int "arm pulls sum to the budget" 30 pulls;
    (* a fixed-arm campaign carries no bandit state *)
    check_bool "fixed arms have no bandit" true
      ((campaign Harness.Approach.Llm4fp).Harness.Campaign.bandit = None)

let test_bandit_byte_identical_across_jobs () =
  (* the arm stream is allocated per slot on the coordinator, so job
     count must not move a single draw: signature, posterior, coverage,
     trace bytes and archive bytes all byte-identical at jobs 1 and 4 *)
  let observe jobs =
    with_tmpdir ~prefix:"llm4fp-bandit-jobs" @@ fun root ->
    let outcome, trace, arch =
      run_traced_campaign ~budget:20 ~jobs ~seed:31337
        ~approach:Harness.Approach.Bandit ~root ()
    in
    ( Harness.Campaign.signature outcome,
      bandit_posterior outcome,
      Obs.Json.to_string
        (Obs.Coverage.to_json outcome.Harness.Campaign.coverage),
      read_file trace,
      archive_bytes arch )
  in
  let reference = observe 1 in
  let _, post, _, trace, _ = reference in
  check_bool "posterior recorded" true (post <> "none");
  check_bool "trace non-empty" true (String.length trace > 0);
  check_bool "jobs=4 byte-identical to jobs=1" true (observe 4 = reference)

(* ------------------------------------------------------------------ *)
(* Campaign digests: one golden line per approach pins the fixed-seed
   outcome signature, the ordered trace bytes and the case archive
   bytes. Cross-run drills compare two runs of the same build; this
   compares against the committed bytes, so a refactor that moves a
   draw or an event anywhere in any approach shows up here. *)

let digest_seed = 20250704

let campaign_digest_line approach =
  with_tmpdir ~prefix:"llm4fp-digest" @@ fun root ->
  let outcome, trace, arch =
    run_traced_campaign ~budget:20 ~jobs:1 ~seed:digest_seed ~approach ~root ()
  in
  let incons, comps, successful, failures, sim =
    Harness.Campaign.signature outcome
  in
  let archive =
    String.concat ""
      (List.map
         (fun (name, body) ->
           Printf.sprintf "%s\n%d\n%s" name (String.length body) body)
         (archive_bytes arch))
  in
  Printf.sprintf "%s incons=%d comparisons=%d successful=%d failures=%d \
                  sim=%h trace=%s archive=%s"
    (Harness.Approach.name approach)
    incons comps successful failures sim
    (Digest.to_hex (Digest.string (read_file trace)))
    (Digest.to_hex (Digest.string archive))

let test_campaign_digests_golden () =
  let approaches =
    Array.to_list Harness.Approach.all @ [ Harness.Approach.Bandit ]
  in
  check_golden "campaign digests" ~golden:"golden/campaign_digests.txt"
    (String.concat "" (List.map (fun a -> campaign_digest_line a ^ "\n") approaches))

(* ------------------------------------------------------------------ *)
(* Fleet shard invariance: the distributed-campaign acceptance drill.

   For every shard count N the fleet must produce the byte-identical
   chunk tree — outcome signature, per-chunk ordered trace bytes,
   per-chunk archive bytes, merged coverage ledger — because chunks,
   not shards, are the unit of determinism. N=1 is the single-process
   reference. *)

let fleet_budget = 12
let fleet_chunk = 5
let fleet_seed = 20250704

(* Run an N-shard fleet sequentially in-process (the trace sink is
   process-global, so shards take turns) and observe everything the
   drill compares on. *)
let observe_fleet ?(approach = Harness.Approach.Llm4fp) ~root n =
  Util.Durable.mkdir_p root;
  for i = 0 to n - 1 do
    match
      Harness.Fleet.run_shard ~chunk:fleet_chunk ~root
        ~spec:{ Harness.Shard.index = i; count = n }
        ~budget:fleet_budget ~seed:fleet_seed approach
    with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  done;
  match Harness.Fleet.load ~root with
  | Error msg -> Alcotest.fail msg
  | Ok m ->
    let n_chunks = List.length m.Harness.Fleet.chunks in
    let per_chunk f =
      List.init n_chunks (fun k -> f (Harness.Fleet.chunk_dir ~root k))
    in
    ( Harness.Fleet.signature m,
      per_chunk (fun dir -> read_file (Harness.Fleet.trace_path dir)),
      per_chunk (fun dir -> archive_bytes (Harness.Fleet.cases_path dir)),
      Obs.Json.to_string (Obs.Coverage.to_json m.Harness.Fleet.merged_coverage),
      Obs.Json.to_string (Difftest.Stats.to_json m.Harness.Fleet.merged_stats),
      List.map
        (fun c -> Obs.Json.to_string (Difftest.Case.to_json c))
        m.Harness.Fleet.cases )

let test_fleet_shard_invariance () =
  let reference =
    with_tmpdir ~prefix:"llm4fp-fleet-n1" @@ fun root -> observe_fleet ~root 1
  in
  let _, ref_traces, ref_archives, _, _, ref_cases = reference in
  check_bool "reference ran chunks" true (List.length ref_traces > 1);
  check_bool "reference traces non-empty" true
    (List.for_all (fun t -> String.length t > 0) ref_traces);
  check_bool "reference recorded cases" true (List.length ref_cases > 0);
  check_bool "reference archives non-empty" true
    (List.exists (fun a -> a <> []) ref_archives);
  List.iter
    (fun n ->
      let obs =
        with_tmpdir ~prefix:(Printf.sprintf "llm4fp-fleet-n%d" n)
        @@ fun root -> observe_fleet ~root n
      in
      check_bool
        (Printf.sprintf
           "N=%d fleet byte-identical to single-process reference" n)
        true (obs = reference))
    [ 2; 4 ]

(* The same drill at the bandit approach: each chunk runs its own arm
   stream seeded from the chunk seed, so shard count must not move a
   draw anywhere in the tree. *)
let test_fleet_bandit_invariance () =
  let observe n =
    with_tmpdir ~prefix:(Printf.sprintf "llm4fp-fleet-bandit-n%d" n)
    @@ fun root -> observe_fleet ~approach:Harness.Approach.Bandit ~root n
  in
  let reference = observe 1 in
  let _, ref_traces, _, _, _, _ = reference in
  check_bool "bandit reference traces non-empty" true
    (List.for_all (fun t -> String.length t > 0) ref_traces);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf
           "N=%d bandit fleet byte-identical to single-process reference" n)
        true
        (observe n = reference))
    [ 3 ]

(* The partition itself: shard slices are pairwise disjoint and jointly
   exhaustive over the budget, at every N. *)
let test_shard_partition () =
  let budget = 103 and seed = 42 in
  let plan = Harness.Shard.plan ~chunk:7 ~budget ~seed () in
  List.iter
    (fun n ->
      let slices =
        List.init n (fun i ->
            Harness.Shard.assigned { Harness.Shard.index = i; count = n } plan)
      in
      let slots =
        List.concat_map (List.concat_map Harness.Shard.slots) slices
      in
      check_int
        (Printf.sprintf "N=%d jointly exhaustive" n)
        budget (List.length slots);
      let sorted = List.sort_uniq compare slots in
      check_bool
        (Printf.sprintf "N=%d pairwise disjoint" n)
        true
        (List.length sorted = budget
        && sorted = List.init budget (fun i -> i + 1)))
    [ 1; 2; 3; 4; 5 ];
  (* chunk seeds are derived per chunk, independent of N *)
  let seeds = List.map (fun s -> s.Harness.Shard.seed) plan in
  check_int "one derived seed per chunk" (List.length plan)
    (List.length (List.sort_uniq compare seeds))

let () =
  Alcotest.run "harness"
    [
      ( "campaign",
        [
          Alcotest.test_case "accounting" `Slow test_campaign_accounting;
          Alcotest.test_case "deterministic" `Slow test_campaign_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_campaign_seed_sensitivity;
          Alcotest.test_case "varity no llm" `Quick test_varity_no_llm;
          Alcotest.test_case "llm latency" `Quick test_llm_has_latency;
          Alcotest.test_case "feedback set" `Quick test_feedback_set_only_llm4fp;
          Alcotest.test_case "approach names" `Quick test_approach_names;
          Alcotest.test_case "time model" `Quick test_time_model_monotonic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "tables render" `Slow test_tables_render;
          Alcotest.test_case "table1 config" `Quick test_table1_is_configuration;
          Alcotest.test_case "table2 approaches" `Slow test_table2_mentions_all_approaches;
          Alcotest.test_case "table5 pairs" `Slow test_table5_has_pairs;
          Alcotest.test_case "table6 within" `Slow test_table6_within_compilers;
          Alcotest.test_case "outcome accessor" `Slow test_outcome_accessor;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "suite byte-identical across jobs" `Slow
            test_parallel_suite_byte_identical;
          Alcotest.test_case "campaign outcome across jobs" `Slow
            test_parallel_campaign_same_outcome;
        ] );
      ( "bandit",
        [
          Alcotest.test_case "arm accounting" `Slow
            test_bandit_campaign_accounting;
          Alcotest.test_case "byte-identical across jobs" `Slow
            test_bandit_byte_identical_across_jobs;
          Alcotest.test_case "fleet shard invariance" `Slow
            test_fleet_bandit_invariance;
        ] );
      ( "golden",
        [
          Alcotest.test_case "campaign digests per approach" `Slow
            test_campaign_digests_golden;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fleet shard invariance" `Slow
            test_fleet_shard_invariance;
          Alcotest.test_case "shard partition laws" `Quick
            test_shard_partition;
          Alcotest.test_case "vm matches reference on campaign cases" `Slow
            test_vm_matches_reference;
        ] );
      ( "precision",
        [
          Alcotest.test_case "fp32 llm4fp" `Slow test_fp32_campaign;
          Alcotest.test_case "fp32 varity" `Quick test_fp32_varity_campaign;
        ] );
      ( "stability",
        [
          Alcotest.test_case "seed table renders" `Slow (fun () ->
              let t =
                Harness.Experiments.seed_stability ~budget:20 ~seeds:[ 1; 2 ] ()
              in
              check_bool "mentions approaches" true
                (Util.Text.contains_sub t "LLM4FP"
                && Util.Text.contains_sub t "mean"));
        ] );
      ( "ablation",
        [
          Alcotest.test_case "variants shape" `Quick test_ablation_variants_shape;
          Alcotest.test_case "replay semantics" `Slow test_ablation_replay_reduces;
        ] );
    ]
