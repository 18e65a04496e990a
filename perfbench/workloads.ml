(* The three benchmark workloads. Each is a closed loop: one process, one
   client, jobs = 1, driving the library's public functions from outside.

   A workload is set up in several passes, then runs rounds until the
   run's time is up. Round [k] runs input set [k], made from the workload
   seed alone. The cost of a slot depends heavily on the program the seed
   draws (feedback loops can chain heavy programs), so a run covers as
   many distinct inputs as its time allows instead of repeating one. The
   first rounds, which every run completes, fix the output digest. *)

type round = {
  seconds : float;  (** wall time of the measured part of the round *)
  cpu_seconds : float;  (** process CPU time of the same part *)
  ops : int;  (** operations attempted: slots, sections, or slots + cases *)
  failed : int;  (** operations that raised or failed a check *)
  slots : int;  (** budget slots the round ran (or tabulated) *)
  incons : int;  (** inconsistencies it found (or tabulated) *)
  items : int;  (** the workload's unit of work: slots, pairs or cases *)
  input : int;  (** identity of the input set: equal inputs, equal digests *)
  digest : string;  (** hex digest of every output the round produced *)
}

type t = {
  name : string;
  item : string;  (** what [items] counts, e.g. ["pairs"] *)
  params : (string * int) list;
  setup : int -> unit;  (** set-up pass [i] *)
  round : int -> round;
      (** round on input set [k]; the same [k] always gives the same
          inputs, so it must give the same digest *)
  check : unit -> (string * int * int) list;
      (** correctness checks outside the timed rounds:
          [(name, attempted, failed)] *)
  outcomes : unit -> Harness.Campaign.outcome list;
      (** the campaign outcomes of input set 0, which the traced run
          replays *)
  suite : unit -> Harness.Experiments.suite;
      (** a suite of those outcomes, for the table-rendering layers *)
  round_outcomes : unit -> Harness.Campaign.outcome list;
      (** campaigns a round on input set 0 runs (empty for [tables]) *)
  static_calls : unit -> (string * int) list;
      (** per-round calls of layers no library counter sees *)
}

(* Decorrelated sub-seeds of the workload seed. *)
let sub seed i = (seed * 1_000_003) + (i * 104_729)

let paper_outcomes (s : Harness.Experiments.suite) =
  [ s.varity; s.direct; s.grammar; s.llm4fp ]

(* The four paper campaigns of [Harness.Experiments.run_suite], seeded as
   it seeds them. The bandit ensemble is left out of every workload: its
   grow arm wraps loops around loops without bound, so one budget-20
   bandit campaign can run for minutes (seed 27066653 grows a 13-deep
   loop nest of 5.0e9 FP ops), which no time-boxed run survives. The
   suite's [bandit] slot holds the LLM4FP outcome so every section still
   renders. *)
let paper_suite ~budget ~seed =
  let run k approach =
    Harness.Campaign.run ~budget ~jobs:1 ~seed:(seed + (k * 7919)) approach
  in
  let varity = run 1 Harness.Approach.Varity in
  let direct = run 2 Harness.Approach.Direct_prompt in
  let grammar = run 3 Harness.Approach.Grammar_guided in
  let llm4fp = run 4 Harness.Approach.Llm4fp in
  { Harness.Experiments.budget; seed; varity; direct; grammar; llm4fp; bandit = llm4fp }

let incons_of outcomes =
  List.fold_left
    (fun acc (o : Harness.Campaign.outcome) ->
      acc + Difftest.Stats.total_inconsistencies o.stats)
    0 outcomes

let slots_of outcomes =
  List.fold_left (fun acc (o : Harness.Campaign.outcome) -> acc + o.budget) 0
    outcomes

let signature_string (o : Harness.Campaign.outcome) =
  let i, c, s, g, sim = Harness.Campaign.signature o in
  Printf.sprintf "%s %d %d %d %d %h;" (Harness.Approach.name o.approach) i c s
    g sim

let hex_digest parts = Digest.to_hex (Digest.string (String.concat "" parts))

let warn fmt = Printf.eprintf (fmt ^^ "\n%!")

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* ---------------------------------------------------------------- *)
(* campaign: the per-slot hot path, no recorder, checkpoint or sink. *)

let campaign_budget = 20
let campaign_suites = 15
let warmup_budget = 60
let check_stride = 10

(* Sub-seed offset of set-up passes, apart from every round's seeds. *)
let warmup_offset = 1_000_000

(* A set-up pass warms up every layer of the slot path with the two
   generators whose programs vary least in cost, Varity and
   Direct-Prompt, so set-up time does not swing with heavy feedback
   chains. *)
let warmup ~seed =
  List.iter
    (fun approach ->
      ignore (Harness.Campaign.run ~budget:warmup_budget ~jobs:1 ~seed approach))
    [ Harness.Approach.Varity; Harness.Approach.Direct_prompt ]

let campaign ~seed =
  let first = ref [] in
  let setup i = warmup ~seed:(sub seed (warmup_offset + i)) in
  let round k =
    let failed = ref 0 in
    let suites, seconds, cpu_seconds =
      Meter.timed_cpu (fun () ->
          List.init campaign_suites (fun i ->
              match
                paper_suite ~budget:campaign_budget
                  ~seed:(sub seed ((k * campaign_suites) + i))
              with
              | s -> Some s
              | exception e ->
                warn "campaign: suite %d raised %s" i (Printexc.to_string e);
                failed := !failed + (4 * campaign_budget);
                None))
    in
    let outcomes = List.concat_map paper_outcomes (List.filter_map Fun.id suites) in
    if k = 0 then first := outcomes;
    let slots = slots_of outcomes in
    {
      seconds;
      cpu_seconds;
      ops = campaign_suites * 4 * campaign_budget;
      failed = !failed;
      slots;
      incons = incons_of outcomes;
      items = slots;
      input = k;
      digest = hex_digest (List.map signature_string outcomes);
    }
  in
  (* The VM must agree bit for bit with the reference interpreter on
     every configuration of a fixed sample of slots. *)
  let check () =
    let attempted = ref 0 and failed = ref 0 in
    let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    let agree inputs = function
      | Either.Right _ -> true
      | Either.Left (_, (b : Compiler.Driver.binary)) -> (
        let vm = outcome (fun () -> Compiler.Driver.execute b inputs)
        and reference =
          outcome (fun () ->
              Irsim.Interp.run (Compiler.Config.runtime b.config) b.ir inputs)
        in
        match (vm, reference) with
        | Ok v, Ok r ->
          Int64.equal
            (Int64.bits_of_float v.Irsim.Interp.result)
            (Int64.bits_of_float r.Irsim.Interp.result)
          && v.fp_ops = r.fp_ops
        | Error v, Error r -> String.equal v r
        | _ -> false)
    in
    List.iter
      (fun (o : Harness.Campaign.outcome) ->
        List.iteri
          (fun k (program, inputs) ->
            if k mod check_stride = 0 then begin
              incr attempted;
              if not (List.for_all (agree inputs) (Compiler.Driver.matrix program))
              then incr failed
            end)
          o.cases)
      !first;
    [ ("vm_matches_interp", !attempted, !failed) ]
  in
  let suite () =
    match !first with
    | varity :: direct :: grammar :: llm4fp :: _ ->
      { Harness.Experiments.budget = campaign_budget; seed = sub seed 0;
        varity; direct; grammar; llm4fp; bandit = llm4fp }
    | _ -> failwith "campaign: no suite recorded"
  in
  {
    name = "campaign";
    item = "slots";
    params =
      [ ("budget", campaign_budget); ("suites_per_round", campaign_suites);
        ("warmup_budget", warmup_budget); ("check_stride", check_stride) ];
    setup;
    round;
    check;
    outcomes = (fun () -> !first);
    suite;
    round_outcomes = (fun () -> !first);
    static_calls = (fun () -> []);
  }

(* ---------------------------------------------------------------- *)
(* tables: every Experiments section from suites built in set-up.   *)

let tables_budget = 60
let tables_max_pairs = 600

let pairs (s : Harness.Experiments.suite) =
  List.fold_left
    (fun acc (o : Harness.Campaign.outcome) ->
      let n = List.length o.programs in
      acc + min tables_max_pairs (n * (n - 1) / 2))
    0 (paper_outcomes s)

let section_digest sections =
  hex_digest
    (List.map
       (fun (x : Harness.Experiments.section) ->
         x.name ^ "\000" ^ x.text ^ "\000" ^ Option.value ~default:"" x.csv)
       sections)

(* Each set-up pass builds one suite; rounds render them in turn. *)
let tables ~seed =
  let suites = ref [||] in
  let rendered = ref [] in
  let get k =
    let n = Array.length !suites in
    if n = 0 then failwith "tables: not set up" else !suites.(k mod n)
  in
  let setup i =
    let s = paper_suite ~budget:tables_budget ~seed:(sub seed i) in
    suites := Array.append !suites [| s |]
  in
  let n_sections = 10 in
  let round k =
    let s = get k in
    let result, seconds, cpu_seconds =
      Meter.timed_cpu (fun () ->
          match Harness.Experiments.sections ~max_pairs:tables_max_pairs ~jobs:1 s with
          | sections -> Ok sections
          | exception e -> Error e)
    in
    let outcomes = paper_outcomes s in
    let base =
      { seconds; cpu_seconds; ops = n_sections; failed = 0; slots = slots_of outcomes;
        incons = incons_of outcomes; items = pairs s;
        input = k mod Array.length !suites; digest = "" }
    in
    match result with
    | Error e ->
      warn "tables: sections raised %s" (Printexc.to_string e);
      { base with failed = n_sections }
    | Ok sections ->
      if k = 0 then rendered := sections;
      { base with ops = List.length sections; digest = section_digest sections }
  in
  (* Table 3 must show the CodeBLEU mean and clone share that the
     diversity functions compute directly for each approach. *)
  let check () =
    let s = get 0 in
    let table3 =
      List.find_map
        (fun (x : Harness.Experiments.section) ->
          if x.name = "table3" then Some x.text else None)
        !rendered
    in
    let contains text sub =
      let n = String.length text and m = String.length sub in
      let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
      go 0
    in
    let outcomes = paper_outcomes s in
    let shown text (o : Harness.Campaign.outcome) =
      let cb =
        Diversity.Codebleu.corpus_mean ~max_pairs:tables_max_pairs ~seed:s.seed
          o.programs
      in
      let clones = Diversity.Clones.analyze o.programs in
      contains text (Printf.sprintf "%.4f" cb)
      && contains text (Printf.sprintf "%.2f%%" (Diversity.Clones.percentage clones))
    in
    let failed =
      match table3 with
      | None -> List.length outcomes
      | Some text -> List.length (List.filter (fun o -> not (shown text o)) outcomes)
    in
    [ ("table3_matches_diversity", List.length outcomes, failed) ]
  in
  {
    name = "tables";
    item = "pairs";
    params = [ ("budget", tables_budget); ("max_pairs", tables_max_pairs) ];
    setup;
    round;
    check;
    outcomes = (fun () -> paper_outcomes (get 0));
    suite = (fun () -> get 0);
    round_outcomes = (fun () -> []);
    static_calls =
      (fun () ->
        let s = get 0 in
        let outcomes = paper_outcomes s in
        [ ("Diversity.Codebleu.summarize",
           List.fold_left
             (fun acc (o : Harness.Campaign.outcome) -> acc + List.length o.programs)
             0 outcomes);
          ("Diversity.Codebleu.symmetric", pairs s);
          ("Diversity.Clones.analyze", List.length outcomes);
          ("Harness.Experiments.other_sections", 1) ]);
  }

(* ---------------------------------------------------------------- *)
(* archive: LLM4FP with the flight recorder and checkpoints attached. *)

let archive_budget = 20
let archive_campaigns = 12
let archive_interval = 5

(* The slot after the last checkpoint boundary: a snapshot is written
   every [interval] slots, never after the final one. *)
let last_next_slot = ((archive_budget - 1) / archive_interval * archive_interval) + 1

let archive ~seed ~workdir =
  let first = ref [] in
  let runs = ref 0 in
  let fresh_dir () =
    incr runs;
    Filename.concat workdir (Printf.sprintf "run-%d" !runs)
  in
  let recorded_run ~dir ~budget ~seed:s i =
    let base = Filename.concat dir (Printf.sprintf "c%d" i) in
    let cases_dir = Filename.concat base "cases" and ckpt_dir = Filename.concat base "ckpt" in
    let recorder = Difftest.Recorder.create ~dir:cases_dir in
    let o =
      Harness.Campaign.run ~budget ~jobs:1 ~recorder
        ~checkpoint:(ckpt_dir, archive_interval) ~seed:s Harness.Approach.Llm4fp
    in
    (o, recorder, cases_dir, ckpt_dir)
  in
  let setup i =
    Util.Durable.mkdir_p workdir;
    warmup ~seed:(sub seed (warmup_offset + i))
  in
  let round k =
    let dir = fresh_dir () in
    let seeds = List.init archive_campaigns (fun i -> sub seed ((k * archive_campaigns) + i)) in
    let failed = ref 0 and cases = ref 0 and prints = ref [] and outcomes = ref [] in
    let (), seconds, cpu_seconds =
      Meter.timed_cpu (fun () ->
          let runs =
            List.mapi
              (fun i s ->
                match recorded_run ~dir ~budget:archive_budget ~seed:s i with
                | run -> Some (s, run)
                | exception e ->
                  warn "archive: campaign %d raised %s" i (Printexc.to_string e);
                  failed := !failed + archive_budget;
                  None)
              seeds
          in
          (* Read back every archive and the last snapshot. *)
          List.iter
            (function
              | None -> ()
              | Some (s, (o, recorder, cases_dir, ckpt_dir)) ->
                outcomes := (s, o) :: !outcomes;
                let count = Difftest.Recorder.count recorder in
                cases := !cases + count;
                (match Difftest.Recorder.load_dir cases_dir with
                | Ok loaded ->
                  prints := List.map Difftest.Case.fingerprint loaded :: !prints;
                  failed := !failed + abs (count - List.length loaded)
                | Error msg ->
                  warn "archive: %s" msg;
                  failed := !failed + count);
                match Checkpoint.load ~dir:ckpt_dir with
                | Ok snap when snap.Checkpoint.next_slot = last_next_slot -> ()
                | Ok _ ->
                  warn "archive: the last snapshot is not at the final boundary";
                  incr failed
                | Error msg ->
                  warn "archive: %s" msg;
                  incr failed)
            runs)
    in
    (* Commit the deletions now, so the next round's fsyncs do not pay
       for this round's clean-up. *)
    rm_rf dir;
    fsync_dir workdir;
    (* Recording must not change results: each recorded campaign's
       signature must equal a bare run's. *)
    List.iter
      (fun (s, (o : Harness.Campaign.outcome)) ->
        let bare = Harness.Campaign.run ~budget:archive_budget ~jobs:1 ~seed:s Harness.Approach.Llm4fp in
        if Harness.Campaign.signature o <> Harness.Campaign.signature bare then begin
          warn "archive: recorded signature differs from the bare run";
          failed := !failed + archive_budget
        end)
      !outcomes;
    let outcomes = List.rev_map snd !outcomes in
    if k = 0 then first := outcomes;
    {
      seconds;
      cpu_seconds;
      ops = (archive_campaigns * archive_budget) + !cases;
      failed = !failed;
      slots = slots_of outcomes;
      incons = incons_of outcomes;
      items = !cases;
      input = k;
      digest =
        hex_digest (List.map signature_string outcomes @ List.concat (List.rev !prints));
    }
  in
  let suite () =
    match !first with
    | a :: b :: c :: d :: e :: _ ->
      { Harness.Experiments.budget = archive_budget; seed = sub seed 0;
        varity = a; direct = b; grammar = c; llm4fp = d; bandit = e }
    | _ -> failwith "archive: fewer than five campaigns recorded"
  in
  {
    name = "archive";
    item = "cases";
    params =
      [ ("budget", archive_budget); ("campaigns_per_round", archive_campaigns);
        ("checkpoint_interval", archive_interval); ("warmup_budget", warmup_budget) ];
    setup;
    round;
    check = (fun () -> []);
    outcomes = (fun () -> !first);
    suite;
    round_outcomes = (fun () -> !first);
    static_calls =
      (fun () ->
        [ ("Checkpoint.write", archive_campaigns * ((archive_budget - 1) / archive_interval));
          ("Difftest.Recorder.load_dir", archive_campaigns);
          ("Checkpoint.load", archive_campaigns) ]);
  }

let names = [ "campaign"; "tables"; "archive" ]

let make name ~seed ~workdir =
  match name with
  | "campaign" -> Some (campaign ~seed)
  | "tables" -> Some (tables ~seed)
  | "archive" -> Some (archive ~seed ~workdir)
  | _ -> None
