(* llm4fp — command-line front end for the LLM4FP reproduction.

   Subcommands:
     generate   print candidate programs from any approach's generator
     matrix     compile & run one program under all 18 configurations
     campaign   run a full campaign for one approach and print statistics
     tables     run all four campaigns and print every paper table/figure
     profile    run a small campaign with span timing and print the profile
     corpus     list or show the mock LLM's kernel corpus
     explain    replay an archived inconsistency case and isolate its cause
     fuzz       run seeded property suites over the framework invariants
     dashboard  render the analytics dashboard from a case archive
     watch      tail a campaign trace and render the live flight deck
     trace      query an archived JSONL trace (filter / stats / CSV) *)

open Cmdliner

let seed_arg =
  Arg.(value & opt int 20250704 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Base random seed (campaigns are deterministic in it).")

let budget_arg =
  Arg.(value & opt int 1000 & info [ "b"; "budget" ] ~docv:"N"
         ~doc:"Number of generated programs per approach (paper: 1000).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL event trace of the run to $(docv) (one \
                 event object per line; byte-reproducible for a fixed \
                 seed).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the metrics-registry snapshot after the run.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the parallel engine (default 1 = \
                 sequential). Results are identical at any job count; \
                 only wall-clock changes.")

(* Bracket [f] with a JSONL trace sink on [path], when given. *)
let with_trace path f =
  match path with
  | None -> f ()
  | Some path ->
    (* Binary mode: trace bytes are identical across platforms (no
       newline translation), the same fix the recorder got. *)
    let oc =
      try open_out_bin path
      with Sys_error msg ->
        prerr_endline ("cannot open trace file: " ^ msg);
        exit 1
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        (* Ordered: the file carries the jobs=1 event sequence at any
           job count (events are sorted by their (slot, lane, seq)
           stamps before they reach the channel). *)
        Obs.Trace.with_sink (Obs.Sink.ordered (Obs.Sink.jsonl oc)) f)

let print_metrics_if requested =
  if requested then begin
    print_newline ();
    print_string (Obs.Metrics.render_table ())
  end

(* Latency percentiles for the dashboard, from the metrics registry.
   Every registered histogram observes modelled (simulated) quantities,
   so these are deterministic in the seed — they may appear in the
   byte-reproducible HTML report. *)
let latency_percentiles () =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Histogram { bounds; counts; count; _ } when count > 0 ->
        let p q = Obs.Metrics.percentile_of ~bounds ~counts q in
        Some
          {
            Report.Analytics.metric = name;
            count;
            p50 = p 0.50;
            p95 = p 0.95;
            p99 = p 0.99;
          }
      | _ -> None)
    (Obs.Metrics.snapshot ())

(* Reports are durable artifacts too: write them atomically so an
   interrupted run never leaves a half-rendered file at the target. *)
let write_file path content =
  try Util.Durable.write_string ~path content with
  | Sys_error msg ->
    prerr_endline ("cannot open output file: " ^ msg);
    exit 1
  | Unix.Unix_error (e, _, _) ->
    prerr_endline ("cannot write output file: " ^ Unix.error_message e);
    exit 1

let approach_arg =
  let parse s =
    match Harness.Approach.of_name s with
    | Some a -> Ok a
    | None ->
      Error (`Msg (Printf.sprintf "unknown approach %S (try varity, \
                                   direct-prompt, grammar-guided, llm4fp, \
                                   bandit)" s))
  in
  let print fmt a = Format.pp_print_string fmt (Harness.Approach.name a) in
  Arg.conv (parse, print)

(* An integer option that must be at least 1. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* ------------------------------------------------------------------ *)

let cmd_generate =
  let count =
    Arg.(value & opt int 1 & info [ "n" ] ~docv:"COUNT" ~doc:"How many programs.")
  in
  let approach =
    Arg.(value & opt approach_arg Harness.Approach.Llm4fp
         & info [ "a"; "approach" ] ~docv:"APPROACH"
             ~doc:"varity | direct-prompt | grammar-guided | llm4fp")
  in
  let run seed count approach =
    if approach = Harness.Approach.Bandit then begin
      prerr_endline
        "bandit is a campaign-level ensemble, not a generator; pick one of \
         varity, direct-prompt, grammar-guided, llm4fp";
      exit 1
    end;
    let rng = Util.Rng.of_int seed in
    let client = Llm.Client.create ~seed () in
    for k = 1 to count do
      let source =
        match approach with
        | Harness.Approach.Bandit -> assert false
        | Harness.Approach.Varity -> Lang.Pp.to_c (Gen.Varity.generate rng)
        | Harness.Approach.Direct_prompt ->
          (Llm.Client.generate client (Llm.Prompt.Direct { precision = Lang.Ast.F64 }))
            .Llm.Client.source
        | Harness.Approach.Grammar_guided | Harness.Approach.Llm4fp ->
          (Llm.Client.generate client (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }))
            .Llm.Client.source
      in
      if count > 1 then Printf.printf "/* --- program %d --- */\n" k;
      print_string source
    done
  in
  Cmd.v (Cmd.info "generate" ~doc:"Print generated candidate programs")
    Term.(const run $ seed_arg $ count $ approach)

let cmd_matrix =
  let file =
    Arg.(value & opt (some file) None
         & info [ "f"; "file" ] ~docv:"FILE"
             ~doc:"C source of a compute function (default: a fresh \
                   LLM4FP-style program).")
  in
  let run seed file =
    let source =
      match file with
      | Some path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | None ->
        let client = Llm.Client.create ~seed () in
        (Llm.Client.generate client (Llm.Prompt.Grammar { precision = Lang.Ast.F64 }))
          .Llm.Client.source
    in
    match Cparse.Parse.program source with
    | Error msg -> prerr_endline ("parse error: " ^ msg); exit 1
    | Ok program ->
      (match Analysis.Validate.check program with
       | Error issues ->
         prerr_endline "invalid program:";
         List.iter
           (fun i -> prerr_endline ("  " ^ Analysis.Validate.issue_to_string i))
           issues;
         exit 1
       | Ok () -> ());
      let rng = Util.Rng.of_int (seed lxor 0xF00D) in
      let inputs =
        Gen.Generate.gen_inputs rng Llm.Client.generation_config program
      in
      print_string (Lang.Pp.to_c program);
      Format.printf "@.inputs: %a@.@." Irsim.Inputs.pp inputs;
      let result = Difftest.Run.test program inputs in
      let rows =
        List.map
          (fun (o : Difftest.Run.output) ->
            [ Compiler.Config.name o.Difftest.Run.config;
              o.Difftest.Run.hex;
              Printf.sprintf "%.17g" o.Difftest.Run.value ])
          result.Difftest.Run.outputs
      in
      print_string
        (Report.Table.render ~header:[ "configuration"; "hex"; "value" ]
           ~align:[ Report.Table.Left; Report.Table.Left; Report.Table.Right ]
           rows);
      Printf.printf "\ncross-compiler inconsistencies: %d of %d comparisons\n"
        (Difftest.Run.cross_inconsistencies result)
        (List.length result.Difftest.Run.cross)
  in
  Cmd.v (Cmd.info "matrix" ~doc:"Run one program under every configuration")
    Term.(const run $ seed_arg $ file)

let cmd_campaign =
  let approach =
    Arg.(required & pos 0 (some approach_arg) None
         & info [] ~docv:"APPROACH"
             ~doc:"Which approach to run: varity, direct-prompt, \
                   grammar-guided, llm4fp, or bandit (the ensemble: every \
                   budget slot goes to the arm — mutate, varity, direct, \
                   grammar, grow — with the best recent inconsistencies \
                   per simulated second).")
  in
  let grow_from =
    Arg.(value & opt (some string) None
         & info [ "grow-from" ] ~docv:"DIR"
             ~doc:"Seed the bandit's grow arm with the archived cases in \
                   $(docv) (a $(b,--record) directory from an earlier \
                   campaign). Only meaningful for $(b,bandit) campaigns.")
  in
  let fp32 =
    Arg.(value & flag
         & info [ "fp32" ] ~doc:"Generate and test single-precision programs.")
  in
  let record =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"DIR"
             ~doc:"Flight recorder: archive every first-seen inconsistency \
                   as a replayable case file $(docv)/<fingerprint>.jsonl \
                   (see the $(b,explain) subcommand). Recording changes no \
                   result.")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write the campaign analytics dashboard (self-contained \
                   HTML) to $(docv). Requires $(b,--record).")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Durably snapshot the complete campaign state to \
                   $(docv)/checkpoint.jsonl every $(b,--checkpoint-every) \
                   slots (atomic temp+rename, fsync'd). Checkpointing \
                   changes no result.")
  in
  let checkpoint_every =
    Arg.(value & opt int 25
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Slots between checkpoints (with $(b,--checkpoint); \
                   default 25).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume an interrupted campaign from \
                   $(docv)/checkpoint.jsonl. The snapshot supplies seed, \
                   budget, precision and (unless $(b,--record) overrides) \
                   the case-archive directory; the positional APPROACH \
                   must match. Checkpointing continues into $(docv) unless \
                   $(b,--checkpoint) redirects it. With $(b,--trace), the \
                   file is truncated to the snapshot's durable offset \
                   first, so the finished trace is byte-identical to an \
                   uninterrupted run's.")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"PLAN"
             ~doc:"Deterministic fault-injection plan for recovery \
                   testing, e.g. $(b,llm\\@3:fail,checkpoint\\@2:crash). \
                   Each rule is STAGE\\@HIT:ACTION with STAGE one of llm, \
                   frontend, backend, exec, archive, checkpoint and \
                   ACTION one of crash, fail (transient, retried), \
                   delay=SECONDS. Also read from \\$LLM4FP_FAULTS.")
  in
  let shard =
    Arg.(value & opt (some string) None
         & info [ "shard" ] ~docv:"I/N"
             ~doc:"Run one fleet shard: the chunks of the budget this \
                   shard of $(i,N) owns, each as an independent \
                   mini-campaign under $(b,--out)/chunk-*/ (own trace, \
                   case archive, checkpoint and durable outcome record). \
                   Chunks completed by an earlier run are skipped; an \
                   interrupted chunk resumes from its checkpoint. The \
                   chunk set — and so the merged result — is identical \
                   at every N ($(b,0/1) is the single-process \
                   reference).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"ROOT"
             ~doc:"The fleet root directory (with $(b,--shard)); merge \
                   completed chunks with $(b,llm4fp merge) $(docv).")
  in
  let chunk =
    Arg.(value & opt int Harness.Shard.default_chunk
         & info [ "chunk" ] ~docv:"SLOTS"
             ~doc:"Chunk size in budget slots (with $(b,--shard); \
                   default 25). Part of the partition's identity: \
                   changing it changes results, changing the shard \
                   count never does.")
  in
  let run seed budget approach grow_from fp32 jobs trace metrics record html
      checkpoint_dir checkpoint_every resume faults shard out chunk =
    if grow_from <> None && approach <> Harness.Approach.Bandit then begin
      prerr_endline
        "llm4fp campaign: --grow-from only applies to bandit campaigns";
      exit 2
    end;
    if grow_from <> None && shard <> None then begin
      prerr_endline
        "llm4fp campaign: --grow-from is not supported in --shard mode (the \
         fleet's chunks each rebuild their own grow pool from feedback)";
      exit 2
    end;
    (match shard with
    | None -> ()
    | Some spec_text -> begin
      (* Shard mode owns its own trace/archive/checkpoint layout under
         the fleet root; the single-campaign flags would silently
         fight it, so they are rejected up front. Exit 2 with a
         one-line diagnostic, like every other usage error. *)
      match Harness.Shard.parse_spec spec_text with
      | Error msg ->
        Printf.eprintf "llm4fp campaign: %s\n" msg;
        exit 2
      | Ok spec ->
        (match out with
        | Some _ -> ()
        | None ->
          prerr_endline
            "llm4fp campaign: --shard needs --out ROOT (the fleet root \
             directory)";
          exit 2);
        if chunk <= 0 then begin
          prerr_endline "llm4fp campaign: --chunk must be positive";
          exit 2
        end;
        if trace <> None || record <> None || html <> None
           || checkpoint_dir <> None || resume <> None
        then begin
          prerr_endline
            "llm4fp campaign: --shard manages its own trace, archive and \
             checkpoints under --out; drop --trace/--record/--html/\
             --checkpoint/--resume";
          exit 2
        end;
        if checkpoint_every <= 0 then begin
          prerr_endline "--checkpoint-every must be positive";
          exit 2
        end;
        (try Exec.Faults.of_env ()
         with Invalid_argument msg ->
           prerr_endline msg;
           exit 1);
        (match faults with
        | None -> ()
        | Some spec -> begin
          match Exec.Faults.parse spec with
          | Ok plan -> Exec.Faults.arm plan
          | Error msg ->
            prerr_endline ("--faults: " ^ msg);
            exit 1
        end);
        let root = Option.get out in
        Util.Durable.mkdir_p root;
        let precision = if fp32 then Lang.Ast.F32 else Lang.Ast.F64 in
        let on_chunk (o : Harness.Fleet.chunk_outcome)
            (how : Harness.Fleet.chunk_run) =
          Printf.printf "chunk %04d: slots %d..%d, %d inconsistencies, %d \
                         case(s)%s\n%!"
            o.Harness.Fleet.chunk o.Harness.Fleet.first_slot
            (o.Harness.Fleet.first_slot + o.Harness.Fleet.budget - 1)
            (Difftest.Stats.total_inconsistencies o.Harness.Fleet.stats)
            (List.length o.Harness.Fleet.fingerprints)
            (match how with
            | Harness.Fleet.Skipped -> " [already done]"
            | Harness.Fleet.Resumed -> " [resumed]"
            | Harness.Fleet.Fresh -> "")
        in
        match
          Harness.Fleet.run_shard ~chunk ~jobs ~precision
            ~interval:checkpoint_every ~on_chunk ~root ~spec ~budget ~seed
            approach
        with
        | Error msg ->
          prerr_endline ("llm4fp campaign: " ^ msg);
          exit 1
        | Ok outcomes ->
          let sum f =
            List.fold_left (fun acc o -> acc + f o) 0 outcomes
          in
          Printf.printf
            "shard %s: %d chunk(s), %d slots, %d inconsistencies, %d \
             case(s) under %s\n"
            (Harness.Shard.spec_name spec)
            (List.length outcomes)
            (sum (fun o -> o.Harness.Fleet.budget))
            (sum (fun o ->
                 Difftest.Stats.total_inconsistencies o.Harness.Fleet.stats))
            (sum (fun o -> List.length o.Harness.Fleet.fingerprints))
            root;
          print_metrics_if metrics;
          exit 0
    end);
    if out <> None then begin
      prerr_endline "llm4fp campaign: --out only makes sense with --shard";
      exit 2
    end;
    if html <> None && record = None then begin
      prerr_endline "--html needs --record DIR (the dashboard folds the case archive)";
      exit 1
    end;
    if checkpoint_every <= 0 then begin
      prerr_endline "--checkpoint-every must be positive";
      exit 1
    end;
    (try Exec.Faults.of_env ()
     with Invalid_argument msg ->
       prerr_endline msg;
       exit 1);
    (match faults with
    | None -> ()
    | Some spec -> begin
      match Exec.Faults.parse spec with
      | Ok plan -> Exec.Faults.arm plan
      | Error msg ->
        prerr_endline ("--faults: " ^ msg);
        exit 1
    end);
    let snapshot =
      match resume with
      | None -> None
      | Some dir -> begin
        match Checkpoint.load ~dir with
        | Ok snap -> Some (dir, snap)
        | Error msg ->
          prerr_endline ("--resume: " ^ msg);
          exit 1
      end
    in
    (* A checkpoint resumes the campaign it came from: its identity
       fields win over the CLI defaults, and a mismatched approach is an
       error here (with a friendlier message than Campaign.run's). *)
    (match snapshot with
    | Some (_, snap)
      when snap.Checkpoint.approach <> Harness.Approach.name approach ->
      Printf.eprintf "--resume: checkpoint is for approach %s, not %s\n"
        snap.Checkpoint.approach
        (Harness.Approach.name approach);
      exit 1
    | _ -> ());
    let seed, budget, precision =
      match snapshot with
      | None -> (seed, budget, if fp32 then Lang.Ast.F32 else Lang.Ast.F64)
      | Some (_, snap) ->
        ( snap.Checkpoint.seed,
          snap.Checkpoint.budget,
          if snap.Checkpoint.precision = "fp32" then Lang.Ast.F32
          else Lang.Ast.F64 )
    in
    let record =
      match (record, snapshot) with
      | None, Some (_, snap) ->
        Option.map
          (fun rs -> rs.Checkpoint.rec_dir)
          snap.Checkpoint.recorder
      | record, _ -> record
    in
    let recorder = Option.map (fun dir -> Difftest.Recorder.create ~dir) record in
    let checkpoint =
      match (checkpoint_dir, snapshot) with
      | Some dir, _ -> Some (dir, checkpoint_every)
      | None, Some (dir, snap) -> Some (dir, snap.Checkpoint.interval)
      | None, None -> None
    in
    let grow_seeds =
      match grow_from with
      | None -> []
      | Some dir -> begin
        match Reduce.grow_pool ~dir with
        | Ok [] ->
          prerr_endline ("--grow-from: no archived cases in " ^ dir);
          exit 1
        | Ok pool -> pool
        | Error msg ->
          prerr_endline ("--grow-from: " ^ msg);
          exit 1
      end
    in
    let with_campaign_trace f =
      match (trace, snapshot) with
      | Some path, Some (_, snap) ->
        (* Truncate back to the checkpoint's durable offset before the
           sink attaches: events the crashed run flushed beyond the
           boundary are discarded, then re-emitted identically. *)
        let oc =
          try Checkpoint.reopen_trace ~path snap with
          | Unix.Unix_error (e, _, _) ->
            prerr_endline
              ("cannot reopen trace file: " ^ Unix.error_message e);
            exit 1
          | Sys_error msg ->
            prerr_endline ("cannot reopen trace file: " ^ msg);
            exit 1
        in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Obs.Trace.with_sink (Obs.Sink.ordered (Obs.Sink.jsonl oc)) f)
      | _ -> with_trace trace f
    in
    let o =
      with_campaign_trace (fun () ->
          Harness.Campaign.run ~budget ~precision ~jobs ?recorder ?checkpoint
            ?resume:(Option.map snd snapshot) ~grow_seeds ~seed approach)
    in
    let stats = o.Harness.Campaign.stats in
    Printf.printf "%s: budget %d, seed %d\n" (Harness.Approach.name approach)
      budget seed;
    Printf.printf "  inconsistency rate : %s\n"
      (Report.Table.pct (Difftest.Stats.inconsistency_rate stats));
    Printf.printf "  inconsistencies    : %s of %s comparisons\n"
      (Report.Table.commas (Difftest.Stats.total_inconsistencies stats))
      (Report.Table.commas (Difftest.Stats.total_comparisons stats));
    Printf.printf "  valid programs     : %d (%d generation failures)\n"
      (List.length o.Harness.Campaign.programs)
      o.Harness.Campaign.generation_failures;
    Printf.printf "  feedback set       : %d\n" o.Harness.Campaign.successful;
    (match o.Harness.Campaign.bandit with
    | None -> ()
    | Some b ->
      Printf.printf "  bandit arms        : (pulls, incons, sim time, rate)\n";
      List.iter
        (fun (name, pulls, incons, sim_s, rate) ->
          Printf.printf "    %-8s %5d  %6d  %8s  %.4f/s\n" name pulls incons
            (Util.Sim_clock.hms sim_s) rate)
        (Harness.Bandit.table b));
    Printf.printf "  simulated time     : %s (llm %s)\n"
      (Util.Sim_clock.hms o.Harness.Campaign.sim_seconds)
      (Util.Sim_clock.hms o.Harness.Campaign.llm_seconds);
    Printf.printf "  real compute       : %.2fs\n" o.Harness.Campaign.real_seconds;
    (match recorder with
    | None -> ()
    | Some r ->
      Printf.printf "  case archive       : %d new case(s) in %s (%d duplicate hits)\n"
        (Difftest.Recorder.count r) (Difftest.Recorder.dir r)
        (Difftest.Recorder.duplicates r));
    (match (html, record) with
    | Some out, Some dir -> begin
      match Difftest.Recorder.load_dir dir with
      | Error msg ->
        prerr_endline ("cannot load case archive: " ^ msg);
        exit 1
      | Ok cases ->
        let analytics =
          Report.Analytics.build (List.map Difftest.Case.to_analytics cases)
        in
        let title =
          Printf.sprintf "LLM4FP campaign forensics — %s, budget %d, seed %d"
            (Harness.Approach.name approach) budget seed
        in
        write_file out
          (Report.Analytics.render_html ~latencies:(latency_percentiles ())
             ~title analytics);
        Printf.printf "  dashboard          : %s\n" out
    end
    | _ -> ());
    print_metrics_if metrics
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Run one approach's full campaign")
    Term.(const run $ seed_arg $ budget_arg $ approach $ grow_from $ fp32
          $ jobs_arg $ trace_arg $ metrics_arg $ record $ html
          $ checkpoint_dir $ checkpoint_every $ resume $ faults $ shard $ out
          $ chunk)

let cmd_fleet =
  let approach =
    Arg.(required & pos 0 (some approach_arg) None
         & info [] ~docv:"APPROACH" ~doc:"Which approach to run.")
  in
  let shards =
    Arg.(value & opt int 2
         & info [ "n"; "shards" ] ~docv:"N"
             ~doc:"Worker processes to supervise (default 2). The merged \
                   result is byte-identical at every N.")
  in
  let fp32 =
    Arg.(value & flag
         & info [ "fp32" ] ~doc:"Generate and test single-precision programs.")
  in
  let out =
    Arg.(required & opt (some string) None
         & info [ "out" ] ~docv:"ROOT"
             ~doc:"The fleet root directory: per-chunk traces, archives, \
                   checkpoints and outcomes land under \
                   $(docv)/chunk-*/, per-shard process logs at \
                   $(docv)/shard-*.log.")
  in
  let chunk =
    Arg.(value & opt int Harness.Shard.default_chunk
         & info [ "chunk" ] ~docv:"SLOTS"
             ~doc:"Chunk size in budget slots (default 25).")
  in
  let checkpoint_every =
    Arg.(value & opt int 5
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Slots between per-chunk checkpoints in the children \
                   (default 5) — the grain at which a crashed shard \
                   resumes.")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"PLAN"
             ~doc:"Fault-injection plan passed to each child's $(i,first) \
                   spawn (e.g. $(b,checkpoint\\@1:crash) for a \
                   crash-and-resume drill). Respawned children run \
                   without it, so an injected crash is hit exactly \
                   once per shard.")
  in
  let max_restarts =
    Arg.(value & opt int 3
         & info [ "max-restarts" ] ~docv:"K"
             ~doc:"Give up on a shard after $(docv) respawns (default 3).")
  in
  let interval =
    Arg.(value & opt float 0.2
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Supervisor polling interval (default 0.2).")
  in
  let run seed budget approach fp32 jobs shards out chunk checkpoint_every
      faults max_restarts interval =
    if shards < 1 then begin
      prerr_endline "llm4fp fleet: -n must be at least 1";
      exit 2
    end;
    if chunk <= 0 then begin
      prerr_endline "llm4fp fleet: --chunk must be positive";
      exit 2
    end;
    if checkpoint_every <= 0 then begin
      prerr_endline "llm4fp fleet: --checkpoint-every must be positive";
      exit 2
    end;
    if interval <= 0.0 then begin
      prerr_endline "llm4fp fleet: --interval must be positive";
      exit 2
    end;
    (* Validate the plan up front (the children re-parse their copy). *)
    (match faults with
    | None -> ()
    | Some spec -> begin
      match Exec.Faults.parse spec with
      | Ok _ -> ()
      | Error msg ->
        prerr_endline ("--faults: " ^ msg);
        exit 1
    end);
    let root = out in
    Util.Durable.mkdir_p root;
    let plan = Harness.Shard.plan ~chunk ~budget ~seed () in
    let slices_of i =
      Harness.Shard.assigned { Harness.Shard.index = i; count = shards } plan
    in
    let log_path i = Filename.concat root (Printf.sprintf "shard-%d.log" i) in
    let child_argv i ~with_faults =
      let args =
        [ Sys.executable_name; "campaign"; Harness.Approach.name approach;
          "--shard"; Printf.sprintf "%d/%d" i shards; "--out"; root;
          "-b"; string_of_int budget; "-s"; string_of_int seed;
          "--chunk"; string_of_int chunk;
          "--checkpoint-every"; string_of_int checkpoint_every;
          "-j"; string_of_int jobs ]
        @ (if fp32 then [ "--fp32" ] else [])
        @ (match faults with
          | Some f when with_faults -> [ "--faults"; f ]
          | _ -> [])
      in
      Array.of_list args
    in
    let spawn i ~with_faults =
      let log =
        Unix.openfile (log_path i)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () ->
          Unix.close log;
          Unix.close null)
        (fun () ->
          Unix.create_process Sys.executable_name (child_argv i ~with_faults)
            null log log)
    in
    let state = Array.init shards (fun i -> `Running (spawn i ~with_faults:true)) in
    let restarts = Array.make shards 0 in
    (* One flight-deck fold per chunk trace: the supervisor streams
       every child's JSONL trace through the same follower protocol the
       watch TUI uses, missing files (a chunk not started yet) reading
       as empty batches. *)
    let trace_of slice =
      Harness.Fleet.trace_path
        (Harness.Fleet.chunk_dir ~root slice.Harness.Shard.chunk)
    in
    let follower =
      Obs.Follow.Multi.create ~paths:(List.map trace_of plan)
    in
    let views : (string, Report.Flightdeck.view) Hashtbl.t =
      Hashtbl.create 32
    in
    let tty = Unix.isatty Unix.stdout in
    let poll_traces () =
      match Obs.Follow.Multi.poll follower with
      | Error msg ->
        prerr_endline ("llm4fp fleet: " ^ msg);
        exit 1
      | Ok batches ->
        List.iter
          (fun (path, (b : Obs.Follow.batch)) ->
            let v =
              if b.Obs.Follow.rotated then Report.Flightdeck.empty
              else
                Option.value ~default:Report.Flightdeck.empty
                  (Hashtbl.find_opt views path)
            in
            Hashtbl.replace views path
              (List.fold_left Obs.Deck.apply v b.Obs.Follow.events))
          batches
    in
    let shard_row i =
      let slices = slices_of i in
      let view_of s =
        Option.value ~default:Report.Flightdeck.empty
          (Hashtbl.find_opt views (trace_of s))
      in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 slices in
      {
        Report.Fleetdeck.shard = i;
        state =
          (match state.(i) with
          | `Running _ -> "running"
          | `Done -> "done"
          | `Failed -> "failed");
        restarts = restarts.(i);
        chunks_done =
          sum (fun s ->
              if
                Sys.file_exists
                  (Harness.Fleet.outcome_path
                     (Harness.Fleet.chunk_dir ~root s.Harness.Shard.chunk))
              then 1
              else 0);
        chunks_total = List.length slices;
        slots_done = sum (fun s -> (view_of s).Report.Flightdeck.slots_done);
        slots_total = sum (fun s -> s.Harness.Shard.budget);
        inconsistencies =
          sum (fun s -> (view_of s).Report.Flightdeck.cross_hits);
      }
    in
    let title =
      Printf.sprintf "llm4fp fleet — %s, budget %d, seed %d, %d shard(s)"
        (Harness.Approach.name approach)
        budget seed shards
    in
    let render () =
      Report.Fleetdeck.render ~title (List.init shards shard_row)
    in
    let rec supervise () =
      Array.iteri
        (fun i st ->
          match st with
          | `Running pid -> begin
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> ()
            | _, Unix.WEXITED 0 -> state.(i) <- `Done
            | _, _ ->
              if restarts.(i) < max_restarts then begin
                restarts.(i) <- restarts.(i) + 1;
                Printf.eprintf
                  "llm4fp fleet: shard %d crashed; restarting (%d/%d), \
                   resuming from its chunk checkpoints\n%!"
                  i restarts.(i) max_restarts;
                (* No fault plan on respawn: the drill's crash fires
                   once, then the shard runs clean from its durable
                   state. *)
                state.(i) <- `Running (spawn i ~with_faults:false)
              end
              else begin
                state.(i) <- `Failed;
                Printf.eprintf
                  "llm4fp fleet: shard %d failed after %d restart(s); see \
                   %s\n%!"
                  i restarts.(i) (log_path i)
              end
          end
          | `Done | `Failed -> ())
        state;
      poll_traces ();
      if tty then begin
        print_string ("\027[H\027[2J" ^ render ());
        flush stdout
      end;
      if Array.exists (function `Running _ -> true | _ -> false) state
      then begin
        Unix.sleepf interval;
        supervise ()
      end
    in
    supervise ();
    poll_traces ();
    print_string (if tty then "\027[H\027[2J" ^ render () else render ());
    if Array.exists (( = ) `Failed) state then exit 1;
    Printf.printf "merge with: llm4fp merge %s\n" root
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Supervise a fleet of campaign shard processes: spawn \
             $(b,-n) children running $(b,campaign --shard i/N) over a \
             deterministic chunk partition of the budget, stream their \
             JSONL traces into one aggregated status view, and restart \
             crashed shards — each resumes from its own per-chunk \
             checkpoints, so the finished tree (and the subsequent \
             $(b,merge)) is byte-identical to an uninterrupted run at \
             any shard count.")
    Term.(const run $ seed_arg $ budget_arg $ approach $ fp32 $ jobs_arg
          $ shards $ out $ chunk $ checkpoint_every $ faults
          $ max_restarts $ interval)

let cmd_merge =
  let root =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ROOT"
             ~doc:"A fleet root directory ($(b,fleet --out) / \
                   $(b,campaign --shard --out)).")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Write the merged analytics dashboard (self-contained \
                   HTML) to $(docv).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write the merged artifacts into $(docv): the \
                   deduplicated case archive (loadable by \
                   $(b,dashboard) and $(b,explain)), the folded \
                   stats.json and coverage.json ledgers, and a \
                   merged.json summary. Byte-deterministic: any shard \
                   count yields the identical directory.")
  in
  let title =
    Arg.(value & opt (some string) None
         & info [ "title" ] ~docv:"TITLE"
             ~doc:"Dashboard title (default derives from the fleet \
                   root's contents).")
  in
  let run root html title out =
    match Harness.Fleet.load ~root with
    | Error msg ->
      Printf.eprintf "llm4fp merge: %s\n" msg;
      exit 2
    | Ok m ->
      let stats = m.Harness.Fleet.merged_stats in
      let coverage = m.Harness.Fleet.merged_coverage in
      Printf.printf "merged %d chunk(s) under %s\n"
        (List.length m.Harness.Fleet.chunks)
        root;
      Printf.printf "  budget             : %d slot(s)\n"
        m.Harness.Fleet.total_budget;
      Printf.printf "  inconsistency rate : %s\n"
        (Report.Table.pct (Difftest.Stats.inconsistency_rate stats));
      Printf.printf "  inconsistencies    : %s of %s comparisons\n"
        (Report.Table.commas (Difftest.Stats.total_inconsistencies stats))
        (Report.Table.commas (Difftest.Stats.total_comparisons stats));
      Printf.printf "  valid programs     : %d (%d generation failures)\n"
        (m.Harness.Fleet.total_budget
        - m.Harness.Fleet.total_generation_failures)
        m.Harness.Fleet.total_generation_failures;
      Printf.printf "  feedback set       : %d (summed over chunks)\n"
        m.Harness.Fleet.total_successful;
      Printf.printf "  simulated time     : %s (llm %s)\n"
        (Util.Sim_clock.hms m.Harness.Fleet.total_sim_seconds)
        (Util.Sim_clock.hms m.Harness.Fleet.total_llm_seconds);
      Printf.printf "  case archive       : %d unique case(s)\n"
        (List.length m.Harness.Fleet.cases);
      Printf.printf "  coverage           : %d cell(s), %d hit(s)\n"
        (Obs.Coverage.total_cells coverage)
        (Obs.Coverage.total_hits coverage);
      let title =
        match title with
        | Some t -> t
        | None ->
          Printf.sprintf "LLM4FP fleet merge — %d chunks, budget %d"
            (List.length m.Harness.Fleet.chunks)
            m.Harness.Fleet.total_budget
      in
      (match out with
      | None -> ()
      | Some dir ->
        Harness.Fleet.write_archive ~dir:(Filename.concat dir "cases") m;
        write_file
          (Filename.concat dir "stats.json")
          (Obs.Json.to_string (Difftest.Stats.to_json stats) ^ "\n");
        write_file
          (Filename.concat dir "coverage.json")
          (Obs.Json.to_string (Obs.Coverage.to_json coverage) ^ "\n");
        let inco, comp, succ, genf, sim_s = Harness.Fleet.signature m in
        write_file
          (Filename.concat dir "merged.json")
          (Obs.Json.to_string
             (Obs.Json.Obj
                [ ("schema", Obs.Json.String "llm4fp-merge/1");
                  ( "chunks",
                    Obs.Json.Int (List.length m.Harness.Fleet.chunks) );
                  ("budget", Obs.Json.Int m.Harness.Fleet.total_budget);
                  ("inconsistencies", Obs.Json.Int inco);
                  ("comparisons", Obs.Json.Int comp);
                  ("successful", Obs.Json.Int succ);
                  ("generation_failures", Obs.Json.Int genf);
                  ("sim_seconds", Obs.Json.Float sim_s);
                  ( "cases",
                    Obs.Json.Int (List.length m.Harness.Fleet.cases) ) ])
          ^ "\n");
        Printf.printf "  merged artifacts   : %s\n" dir);
      (match html with
      | None -> ()
      | Some file ->
        let analytics =
          Report.Analytics.build
            (List.map Difftest.Case.to_analytics m.Harness.Fleet.cases)
        in
        write_file file (Report.Analytics.render_html ~title analytics);
        Printf.printf "  dashboard          : %s\n" file)
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge a fleet root's completed chunks into one combined \
             record: union the case archives (fingerprint dedup), fold \
             the statistics and coverage ledgers in chunk order, and \
             optionally emit the merged archive, ledgers and dashboard. \
             Deterministic: the same chunk set merges to identical \
             bytes regardless of shard count or merge order.")
    Term.(const run $ root $ html $ title $ out)

let cmd_tables =
  let only =
    Arg.(value & opt (some string) None
         & info [ "t"; "table" ] ~docv:"NAME"
             ~doc:"Print only this section (summary, table1, table2, table3, \
                   figure3, table4, table5, table6).")
  in
  let max_pairs =
    Arg.(value & opt positive_int 50_000 & info [ "max-pairs" ] ~docv:"N"
           ~doc:"CodeBLEU pair-sample bound per approach (at least 1).")
  in
  let csv =
    Arg.(value & flag
         & info [ "csv" ]
             ~doc:"Also write each table as CSV (requires $(b,--out)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for the CSV files (one <section>.csv per \
                   table).")
  in
  let run seed budget only max_pairs jobs trace metrics csv out =
    if csv && out = None then begin
      prerr_endline "--csv needs --out DIR";
      exit 1
    end;
    let suite, sections =
      with_trace trace (fun () ->
          let suite = Harness.Experiments.run_suite ~budget ~jobs ~seed () in
          (suite, Harness.Experiments.sections ~max_pairs ~jobs suite))
    in
    (* Wall-clock stays out of the sections, which are deterministic in
       the seed. *)
    Printf.eprintf "real compute:%s\n"
      (String.concat ","
         (Array.to_list
            (Array.map
               (fun a ->
                 Printf.sprintf " %s %.1fs" (Harness.Approach.name a)
                   (Harness.Experiments.outcome suite a)
                     .Harness.Campaign.real_seconds)
               Harness.Approach.all)));
    (match only with
    | None ->
      List.iter
        (fun (s : Harness.Experiments.section) ->
          Printf.printf "== %s ==\n%s\n" s.Harness.Experiments.name
            s.Harness.Experiments.text)
        sections
    | Some name -> begin
      match
        List.find_opt
          (fun (s : Harness.Experiments.section) ->
            s.Harness.Experiments.name = name)
          sections
      with
      | Some s -> print_string s.Harness.Experiments.text
      | None ->
        prerr_endline ("unknown section " ^ name);
        exit 1
    end);
    (match (csv, out) with
    | true, Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      List.iter
        (fun (s : Harness.Experiments.section) ->
          match s.Harness.Experiments.csv with
          | None -> ()
          | Some data ->
            let path =
              Filename.concat dir (s.Harness.Experiments.name ^ ".csv")
            in
            write_file path data;
            Printf.eprintf "wrote %s\n" path)
        sections
    | _ -> ());
    print_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Run all four campaigns and print every paper table and figure")
    Term.(const run $ seed_arg $ budget_arg $ only $ max_pairs $ jobs_arg
          $ trace_arg $ metrics_arg $ csv $ out)

let cmd_corpus =
  let kernel_name =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"Kernel to print (omit to list).")
  in
  let run name =
    match name with
    | None ->
      Array.iter
        (fun (e : Llm.Corpus.entry) ->
          Printf.printf "%-28s %s\n" e.Llm.Corpus.name
            (if e.Llm.Corpus.common then "common" else ""))
        Llm.Corpus.entries
    | Some name -> begin
      match
        Array.find_opt
          (fun (e : Llm.Corpus.entry) -> e.Llm.Corpus.name = name)
          Llm.Corpus.entries
      with
      | Some e -> print_string (String.trim e.Llm.Corpus.source ^ "\n")
      | None ->
        prerr_endline ("no such kernel: " ^ name);
        exit 1
    end
  in
  Cmd.v (Cmd.info "corpus" ~doc:"List or print the mock LLM's kernel corpus")
    Term.(const run $ kernel_name)

let cmd_ablation =
  let run seed budget = print_string (Harness.Ablation.table ~budget ~seed ()) in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Replay one LLM4FP corpus under ablated compiler models")
    Term.(const run $ seed_arg
          $ Arg.(value & opt int 300
                 & info [ "b"; "budget" ] ~docv:"N" ~doc:"Corpus size."))

let cmd_fp32 =
  let run seed budget =
    print_string (Harness.Experiments.precision_comparison ~budget ~seed ())
  in
  Cmd.v
    (Cmd.info "precision"
       ~doc:"Compare FP64 and FP32 campaigns (Varity and LLM4FP)")
    Term.(const run $ seed_arg
          $ Arg.(value & opt int 300
                 & info [ "b"; "budget" ] ~docv:"N" ~doc:"Budget per campaign."))

let cmd_profile =
  let approach =
    Arg.(value & opt approach_arg Harness.Approach.Llm4fp
         & info [ "a"; "approach" ] ~docv:"APPROACH"
             ~doc:"varity | direct-prompt | grammar-guided | llm4fp")
  in
  let budget =
    Arg.(value & opt int 100
         & info [ "b"; "budget" ] ~docv:"N"
             ~doc:"Campaign size for the profiling run.")
  in
  let flame =
    Arg.(value & opt (some string) None
         & info [ "flame" ] ~docv:"FILE"
             ~doc:"Also export the span tree as Chrome trace-event JSON \
                   to $(docv) (loadable in chrome://tracing or Perfetto).")
  in
  let run seed budget approach jobs trace metrics flame =
    Obs.Span.set_enabled true;
    let o =
      with_trace trace (fun () ->
          Harness.Campaign.run ~budget ~jobs ~seed approach)
    in
    Printf.printf
      "%s: budget %d, seed %d — %s inconsistencies, real compute %.2fs\n\n"
      (Harness.Approach.name approach)
      budget seed
      (Report.Table.commas
         (Difftest.Stats.total_inconsistencies o.Harness.Campaign.stats))
      o.Harness.Campaign.real_seconds;
    print_string (Obs.Span.render ());
    print_newline ();
    print_string (Obs.Span.render_tree ());
    print_newline ();
    print_string (Obs.Metrics.render_percentiles ());
    (match flame with
    | None -> ()
    | Some out ->
      write_file out (Obs.Json.to_string (Obs.Span.flame ()) ^ "\n");
      Printf.eprintf "wrote %s\n" out);
    print_metrics_if metrics
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a small campaign with span timing enabled and print the \
             per-stage hot-path profile (flat and as a call tree), \
             optionally exporting a flamegraph ($(b,--flame))")
    Term.(const run $ seed_arg $ budget $ approach $ jobs_arg $ trace_arg
          $ metrics_arg $ flame)

let cmd_explain =
  let case_ref =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"CASE"
             ~doc:"An archive file path, or a bare fingerprint resolved \
                   against $(b,--archive).")
  in
  let archive =
    Arg.(value & opt (some string) None
         & info [ "archive" ] ~docv:"DIR"
             ~doc:"The case-archive directory a bare fingerprint is \
                   looked up in (as written by $(b,campaign --record)).")
  in
  let reduce =
    Arg.(value & flag
         & info [ "reduce" ]
             ~doc:"Also minimize the case with the delta-debugging reducer \
                   and write the reduced replayable record next to the \
                   archived one ($(i,FP).min.jsonl).")
  in
  let run case_ref archive reduce metrics =
    (match archive with
    | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
      Printf.eprintf
        "llm4fp explain: no case archive at %s (create one with \
         'campaign --record %s')\n"
        dir dir;
      exit 2
    | Some dir
      when Array.for_all
             (fun f -> not (Filename.check_suffix f ".jsonl"))
             (Sys.readdir dir) ->
      Printf.eprintf
        "llm4fp explain: case archive %s is empty (no *.jsonl case files)\n"
        dir;
      exit 2
    | _ -> ());
    Obs.Span.set_enabled true;
    match Forensics.Explain.load ?dir:archive case_ref with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok case -> begin
      match Forensics.Explain.replay ~reduce case with
      | Error msg ->
        prerr_endline ("replay failed: " ^ msg);
        exit 1
      | Ok outcome ->
        print_string (Forensics.Explain.render outcome);
        (match outcome.Forensics.Explain.reduction with
        | Some (Ok r) ->
          (* the companion lands where the case lives: the directory of
             the given path, or the --archive directory *)
          let dir =
            if Sys.file_exists case_ref && not (Sys.is_directory case_ref)
            then Filename.dirname case_ref
            else Option.value archive ~default:"."
          in
          let path =
            Difftest.Recorder.write_minimized ~dir
              ~fingerprint:(Difftest.Case.fingerprint case)
              r.Reduce.reduced
          in
          Printf.eprintf "wrote %s\n" path
        | Some (Error _) | None -> ());
        print_newline ();
        print_string (Obs.Span.render ());
        print_metrics_if metrics;
        if not outcome.Forensics.Explain.reproduced then exit 1
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay an archived inconsistency case bit-for-bit, isolate \
             its root cause (minimal strict-statement set or runtime \
             divergence), and optionally emit a minimized replayable case \
             ($(b,--reduce))")
    Term.(const run $ case_ref $ archive $ reduce $ metrics_arg)

let cmd_fuzz =
  let iters =
    Arg.(value & opt (some int) None
         & info [ "n"; "iters" ] ~docv:"N"
             ~doc:"Cases per property (default: $(b,LLM4FP_PROP_ITERS) when \
                   set, else 60).")
  in
  let suite =
    Arg.(value & opt (some string) None
         & info [ "suite" ] ~docv:"NAME"
             ~doc:"Run only this property suite (see $(b,--list)).")
  in
  let replay =
    Arg.(value & opt (some int64) None
         & info [ "replay" ] ~docv:"SEED"
             ~doc:"Re-check the single case generated from $(docv) — the \
                   seed a failed property printed. Requires $(b,--suite).")
  in
  let list_only =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the property suites and exit.")
  in
  let run seed iters suite replay list_only metrics =
    if list_only then
      List.iter
        (fun s -> Printf.printf "%-22s %s\n" s.Prop.Suites.name s.Prop.Suites.doc)
        Prop.Suites.all
    else begin
      let report r =
        match r.Prop.Suites.failure with
        | None ->
          Printf.printf "PASS  %-22s (%d cases)\n" r.Prop.Suites.suite
            r.Prop.Suites.iterations;
          true
        | Some msg ->
          Printf.printf "FAIL  %-22s\n%s\n" r.Prop.Suites.suite msg;
          false
      in
      let ok =
        match replay with
        | Some case_seed -> begin
          match suite with
          | None ->
            prerr_endline "--replay requires --suite";
            exit 2
          | Some name -> begin
            match Prop.Suites.find name with
            | None ->
              Printf.eprintf "unknown suite %s (try --list)\n" name;
              exit 2
            | Some s -> report (s.Prop.Suites.replay case_seed)
          end
        end
        | None ->
          let suites =
            match suite with
            | None -> Prop.Suites.all
            | Some name -> begin
              match Prop.Suites.find name with
              | Some s -> [ s ]
              | None ->
                Printf.eprintf "unknown suite %s (try --list)\n" name;
                exit 2
            end
          in
          List.fold_left
            (fun ok s ->
              let r =
                s.Prop.Suites.run ?count:iters ~seed:(Int64.of_int seed) ()
              in
              report r && ok)
            true suites
      in
      print_metrics_if metrics;
      if not ok then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run the seeded property suites over the framework's own \
             invariants (generator validity, pass semantics preservation, \
             codec fixpoints, EFT identities). A failed property prints \
             the seed that deterministically replays its shrunk \
             counterexample.")
    Term.(const run $ seed_arg $ iters $ suite $ replay $ list_only
          $ metrics_arg)

let cmd_dashboard =
  let archive =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"The case-archive directory to analyze.")
  in
  let html =
    Arg.(value & opt (some string) None
         & info [ "html" ] ~docv:"FILE"
             ~doc:"Also write the dashboard as self-contained HTML.")
  in
  let title =
    Arg.(value & opt string "LLM4FP campaign forensics"
         & info [ "title" ] ~docv:"TITLE" ~doc:"Report title.")
  in
  let run archive html title =
    if not (Sys.file_exists archive && Sys.is_directory archive) then begin
      Printf.eprintf
        "llm4fp dashboard: no case archive at %s (create one with \
         'campaign --record %s')\n"
        archive archive;
      exit 2
    end;
    match Difftest.Recorder.load_dir archive with
    | Error msg ->
      prerr_endline ("cannot load case archive: " ^ msg);
      exit 1
    | Ok [] ->
      Printf.eprintf
        "llm4fp dashboard: case archive %s is empty (no *.jsonl case \
         files — the recorded campaign found no inconsistencies?)\n"
        archive;
      exit 2
    | Ok cases ->
      let analytics =
        Report.Analytics.build (List.map Difftest.Case.to_analytics cases)
      in
      print_string (Report.Analytics.render_tty ~title analytics);
      (match html with
      | None -> ()
      | Some out ->
        write_file out (Report.Analytics.render_html ~title analytics);
        Printf.eprintf "wrote %s\n" out)
  in
  Cmd.v
    (Cmd.info "dashboard"
       ~doc:"Fold a case archive into per-pair / per-level / per-class \
             breakdown tables (TTY summary and optional HTML report)")
    Term.(const run $ archive $ html $ title)

let cmd_watch =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"The JSONL trace file a campaign is writing \
                   ($(b,campaign --trace)); it need not exist yet.")
  in
  let replay =
    Arg.(value & flag
         & info [ "replay" ]
             ~doc:"Fold the completed trace in one pass and print a single \
                   final frame. Deterministic: a fixed-seed trace replays \
                   to a byte-identical frame.")
  in
  let interval =
    Arg.(value & opt float 0.5
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Polling interval in live mode (default 0.5).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECS"
             ~doc:"Give up if the campaign has not finished after $(docv) \
                   of watching (exit 3). Default: watch until it does.")
  in
  let run file replay interval timeout =
    if replay then begin
      match Obs.Follow.read_all ~path:file with
      | Error msg ->
        prerr_endline ("llm4fp watch: " ^ msg);
        exit 1
      | Ok events ->
        print_string (Report.Flightdeck.render (Obs.Deck.of_events events))
    end
    else begin
      if interval <= 0.0 then begin
        prerr_endline "--interval must be positive";
        exit 1
      end;
      let follower = Obs.Follow.create ~path:file in
      let view = ref Report.Flightdeck.empty in
      let t0 = Unix.gettimeofday () in
      (* On a TTY each frame repaints in place; piped output gets one
         frame per batch, newline-separated (still parseable). *)
      let clear =
        if Unix.isatty Unix.stdout then "\027[H\027[2J" else ""
      in
      let rec loop () =
        match Obs.Follow.poll follower with
        | Error msg ->
          prerr_endline ("llm4fp watch: " ^ msg);
          exit 1
        | Ok batch ->
          if batch.Obs.Follow.rotated then view := Report.Flightdeck.empty;
          if batch.Obs.Follow.events <> [] then begin
            view :=
              List.fold_left Obs.Deck.apply !view batch.Obs.Follow.events;
            print_string (clear ^ Report.Flightdeck.render !view);
            flush stdout
          end;
          if not (!view).Report.Flightdeck.finished then begin
            (match timeout with
            | Some limit when Unix.gettimeofday () -. t0 > limit ->
              Printf.eprintf
                "llm4fp watch: campaign not finished after %gs\n" limit;
              exit 3
            | _ -> ());
            Unix.sleepf interval;
            loop ()
          end
      in
      loop ()
    end
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Tail a campaign's JSONL trace and render the live flight \
             deck: per-phase throughput, outcome and strategy-arm counts, \
             inconsistency hits by pair and level, latency sparkline and \
             budget ETA — all on the deterministic simulated clock. \
             Watching is purely observational: the campaign's results, \
             trace and archives are byte-identical with or without a \
             watcher attached.")
    Term.(const run $ file $ replay $ interval $ timeout)

let cmd_trace_query =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"An archived JSONL trace ($(b,campaign --trace)).")
  in
  let kind =
    Arg.(value & opt (some string) None
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Only events of this kind (snake_case tag, e.g. \
                   $(b,inconsistency_found), $(b,slot_finished)).")
  in
  let slot =
    Arg.(value & opt (some int) None
         & info [ "slot" ] ~docv:"N"
             ~doc:"Only events carrying campaign slot $(docv).")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "config" ] ~docv:"NAME"
             ~doc:"Only compile/execute events for this compiler \
                   configuration.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print per-kind counts for the selection instead of the \
                   event rows.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let run file kind slot config stats csv =
    match Obs.Follow.read_all ~path:file with
    | Error msg ->
      prerr_endline ("llm4fp trace: " ^ msg);
      exit 1
    | Ok events ->
      let matches ev =
        (match kind with None -> true | Some k -> Obs.Event.name ev = k)
        && (match slot with
           | None -> true
           | Some s -> Obs.Event.slot ev = Some s)
        && (match config with
           | None -> true
           | Some c -> Obs.Event.config ev = Some c)
      in
      let selected =
        List.mapi (fun i ev -> (i + 1, ev)) events
        |> List.filter (fun (_, ev) -> matches ev)
      in
      if stats then begin
        let counts = Hashtbl.create 16 in
        List.iter
          (fun (_, ev) ->
            let k = Obs.Event.name ev in
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          selected;
        let rows =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
          |> List.sort compare
          |> List.map (fun (k, n) -> [ k; string_of_int n ])
        in
        let header = [ "event"; "count" ] in
        let rows =
          rows @ [ [ "total"; string_of_int (List.length selected) ] ]
        in
        if csv then print_string (Report.Table.to_csv ~header rows)
        else print_string (Report.Table.render ~header rows)
      end
      else begin
        let header = [ "#"; "slot"; "event"; "detail" ] in
        let rows =
          List.map
            (fun (i, ev) ->
              [ string_of_int i;
                (match Obs.Event.slot ev with
                | Some s -> string_of_int s
                | None -> "-");
                Obs.Event.name ev;
                Obs.Event.summary ev ])
            selected
        in
        if csv then print_string (Report.Table.to_csv ~header rows)
        else
          print_string
            (Report.Table.render ~header
               ~align:
                 [ Report.Table.Right; Report.Table.Right; Report.Table.Left;
                   Report.Table.Left ]
               rows)
      end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Query an archived JSONL trace: filter by event kind, \
             campaign slot or compiler configuration, and print matching \
             events (or $(b,--stats) counts) as a table or CSV. Output is \
             deterministic for a fixed-seed trace.")
    Term.(const run $ file $ kind $ slot $ config $ stats $ csv)

let cmd_coverage =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"An archived JSONL trace ($(b,campaign --trace)).")
  in
  let by_strategy =
    Arg.(value & flag
         & info [ "by-strategy" ]
             ~doc:"Per-strategy efficiency instead of the cell listing: \
                   novel cells and total hits per generation strategy, \
                   with rates on the simulated clock.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let run file by_strategy csv =
    match Obs.Follow.read_all ~path:file with
    | Error msg ->
      prerr_endline ("llm4fp coverage: " ^ msg);
      exit 1
    | Ok events ->
      (* Rebuild the ledger view from the coverage events alone. A
         Coverage_hit for a cell whose Coverage_novel predates the trace
         (impossible for a complete trace, possible for a truncated one)
         still lists, with unknown provenance. *)
      let tbl = Hashtbl.create 64 in
      let sim_end = ref 0.0 in
      let novel_by = Hashtbl.create 8 in
      let hits_by = Hashtbl.create 8 in
      let count tbl k by =
        Hashtbl.replace tbl k
          (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      List.iter
        (fun ev ->
          match ev with
          | Obs.Event.Coverage_novel
              { slot; kind; pair; level; classes; strategy; sim_s; _ } ->
            Hashtbl.replace tbl (kind, pair, level, classes)
              (1, string_of_int slot, Obs.Json.float_repr sim_s, strategy);
            sim_end := Float.max !sim_end sim_s;
            count novel_by strategy 1;
            count hits_by strategy 1
          | Obs.Event.Coverage_hit
              { kind; pair; level; classes; strategy; hits; _ } ->
            let _, slot, sim, disc =
              Option.value
                ~default:(0, "-", "-", "?")
                (Hashtbl.find_opt tbl (kind, pair, level, classes))
            in
            Hashtbl.replace tbl (kind, pair, level, classes)
              (hits, slot, sim, disc);
            count hits_by strategy 1
          | Obs.Event.Slot_finished { sim_s; _ } ->
            sim_end := Float.max !sim_end sim_s
          | Obs.Event.Campaign_finished { sim_seconds; _ } ->
            sim_end := Float.max !sim_end sim_seconds
          | _ -> ())
        events;
      if by_strategy then begin
        let strategies =
          Hashtbl.fold (fun k _ acc -> k :: acc) hits_by []
          |> List.sort_uniq String.compare
        in
        let rate n =
          if !sim_end <= 0.0 then "-"
          else Printf.sprintf "%.6f/s" (float_of_int n /. !sim_end)
        in
        let header = [ "strategy"; "novel"; "hits"; "novel/sim-s";
                       "hits/sim-s" ] in
        let rows =
          List.map
            (fun s ->
              let novel =
                Option.value ~default:0 (Hashtbl.find_opt novel_by s)
              in
              let hits =
                Option.value ~default:0 (Hashtbl.find_opt hits_by s)
              in
              [ s; string_of_int novel; string_of_int hits; rate novel;
                rate hits ])
            strategies
        in
        if csv then print_string (Report.Table.to_csv ~header rows)
        else print_string (Report.Table.render ~header rows)
      end
      else begin
        let header = [ "kind"; "pair"; "level"; "classes"; "hits";
                       "first slot"; "first sim_s"; "strategy" ] in
        let rows =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort compare
          |> List.map
               (fun ((kind, pair, level, classes), (hits, slot, sim, disc))
               ->
                 [ kind; pair; level; classes; string_of_int hits; slot;
                   sim; disc ])
        in
        if csv then print_string (Report.Table.to_csv ~header rows)
        else print_string (Report.Table.render ~header rows)
      end
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Fold a campaign trace's coverage events into the \
             search-space ledger view: every discovered (kind, pair, \
             level, value-class) cell with hit count and first-discovery \
             provenance, or ($(b,--by-strategy)) per-strategy novelty and \
             discovery rates on the simulated clock. Cell order is \
             deterministic for a fixed-seed trace.")
    Term.(const run $ file $ by_strategy $ csv)

let cmd_stability =
  let seeds =
    Arg.(value & opt (list int) [ 11; 22; 33 ]
         & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Seeds to compare.")
  in
  let run budget seeds =
    print_string (Harness.Experiments.seed_stability ~budget ~seeds ())
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Inconsistency rates across several independent seeds")
    Term.(const run
          $ Arg.(value & opt int 200
                 & info [ "b"; "budget" ] ~docv:"N" ~doc:"Budget per campaign.")
          $ seeds)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "llm4fp" ~version:"1.0.0"
             ~doc:"LLM-guided floating-point differential compiler testing \
                   (SC'25 reproduction)")
          [ cmd_generate; cmd_matrix; cmd_campaign; cmd_fleet; cmd_merge;
            cmd_tables; cmd_profile; cmd_explain; cmd_fuzz; cmd_dashboard;
            cmd_watch; cmd_trace_query; cmd_coverage; cmd_corpus;
            cmd_ablation; cmd_fp32; cmd_stability ]))
