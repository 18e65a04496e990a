type output = {
  config : Compiler.Config.t;
  value : float;
  hex : string;
  ops : int;
  work : int;
}

type comparison = {
  level : Compiler.Optlevel.t;
  left : output;
  right : output;
  inconsistent : bool;
  class_left : Fp.Bits.class_;
  class_right : Fp.Bits.class_;
  digits : int;
}

type result = {
  outputs : output list;
  failures : (Compiler.Config.t * string) list;
  cross : ((Compiler.Personality.t * Compiler.Personality.t) * comparison) list;
  within : (Compiler.Personality.t * comparison) list;
  total_work : int;
  total_ops : int;
}

let m_programs = Obs.Metrics.counter "difftest.programs"
let m_cross = Obs.Metrics.counter "difftest.comparisons.cross"
let m_within = Obs.Metrics.counter "difftest.comparisons.within"
let m_cross_incons = Obs.Metrics.counter "difftest.inconsistencies.cross"
let m_within_incons = Obs.Metrics.counter "difftest.inconsistencies.within"

let m_digits =
  Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0; 12.0; 17.0 |]
    "difftest.digit_diffs"

let m_dedup_hits = Obs.Metrics.counter "exec.dedup.hits"
let m_dedup_misses = Obs.Metrics.counter "exec.dedup.misses"

let compare_outputs level (left : output) (right : output) =
  let inconsistent = left.hex <> right.hex in
  {
    level;
    left;
    right;
    inconsistent;
    class_left = Fp.Bits.classify left.value;
    class_right = Fp.Bits.classify right.value;
    digits = (if inconsistent then Fp.Digits.diff_count left.value right.value else 0);
  }

let test ?configs ?(jobs = 1) program inputs =
  let configs =
    match configs with Some cs -> cs | None -> Compiler.Config.all ()
  in
  (* One shared front-end cache for the whole configuration matrix: one
     front-end pass serves every configuration.
     The per-config back end + execution fan out across the domain pool;
     Pool.map keeps configuration order, so outputs and failures are
     identical at any job count. *)
  let fronts = Compiler.Driver.fronts program in
  let slot = Obs.Trace.current_slot () in
  (* Pool workers re-establish the campaign's slot context so their
     Compiled/Executed trace events stay correlated. *)
  let in_slot go =
    match slot with Some s -> Obs.Trace.with_slot s go | None -> go ()
  in
  (* Phase 1 — compile every configuration. Each task stamps its events
     with the configuration's matrix index as the lane — an ordered sink
     sorts on (slot, lane, seq), restoring the jobs=1 event order no
     matter which domain finishes first. At jobs = 1 the pool runs tasks
     inline, so the per-config compile spans nest under this one in the
     span tree; at jobs > 1 they record in worker domains and surface as
     that domain's roots. *)
  let compiled =
    Obs.Span.with_span "difftest.fanout" @@ fun () ->
    Exec.Pool.map ~jobs
      (fun (lane, config) ->
        in_slot (fun () ->
            Obs.Trace.with_lane lane (fun () ->
                Compiler.Driver.compile_with fronts config)))
      (List.mapi (fun i c -> (i, c)) configs)
  in
  (* Phase 2 — deduplicate executions. Configurations whose back ends
     produced the same (post-pipeline IR, runtime) pair are literally the
     same binary: one execution serves them all. The key scan is
     polymorphic [compare] (NaN-tolerant, unlike [=], so folded NaN
     constants still dedup) over at most |configs| leaders. The first
     configuration holding a key becomes the group's leader, so grouping
     is deterministic in configuration order. *)
  let exec_key (b : Compiler.Driver.binary) =
    (b.Compiler.Driver.ir, Compiler.Config.runtime b.Compiler.Driver.config)
  in
  let leader_of = Array.make (max 1 (List.length configs)) (-1) in
  let leaders_rev = ref [] in
  List.iteri
    (fun i r ->
      match r with
      | Error _ -> ()
      | Ok binary -> begin
        let key = exec_key binary in
        match
          List.find_opt
            (fun (k, _, _) -> Stdlib.compare k key = 0)
            !leaders_rev
        with
        | Some (_, lane, _) -> leader_of.(i) <- lane
        | None ->
          leaders_rev := (key, i, binary) :: !leaders_rev;
          leader_of.(i) <- i
      end)
    compiled;
  let leaders = List.rev !leaders_rev in
  (* Phase 3 — one execution per distinct binary, fanned out. Raw
     [execute]: accounting happens per configuration in phase 4. A trap
     (out-of-bounds subscript) is a reportable per-configuration
     failure, not a crash. *)
  let executed =
    Obs.Span.with_span "difftest.exec" @@ fun () ->
    Exec.Pool.map ~jobs
      (fun (_, _, binary) ->
        in_slot (fun () ->
            match Compiler.Driver.execute binary inputs with
            | out -> Ok out
            | exception Irsim.Interp.Trap t ->
              Error ("execution trapped: " ^ Irsim.Interp.trap_message t)))
      leaders
  in
  let outcome_by_lane = Hashtbl.create 16 in
  List.iter2
    (fun (_, lane, _) out -> Hashtbl.replace outcome_by_lane lane out)
    leaders executed;
  (* Phase 4 — per-configuration accounting, sequential in configuration
     order. Every configuration books its own run — metrics, dedup
     hit/miss, and (when tracing) an Executed event re-entering the
     configuration's lane at seq 1, the stamp the compile event's lane
     left off at — so outputs, totals, and trace bytes are identical to
     executing each configuration separately. *)
  let outputs, failures =
    let outs = ref [] and fails = ref [] in
    List.iteri
      (fun i (config, r) ->
        match r with
        | Error msg -> fails := (config, msg) :: !fails
        | Ok binary -> begin
          let lane = leader_of.(i) in
          match Hashtbl.find outcome_by_lane lane with
          | Error msg ->
            fails :=
              (config, Printf.sprintf "%s: %s" (Compiler.Config.name config) msg)
              :: !fails
          | Ok (out : Irsim.Interp.outcome) ->
            Obs.Metrics.incr
              (if lane = i then m_dedup_misses else m_dedup_hits);
            in_slot (fun () ->
                Obs.Trace.with_lane ~seq:1 i (fun () ->
                    Compiler.Driver.account binary out));
            outs :=
              {
                config;
                value = out.Irsim.Interp.result;
                hex = Fp.Bits.hex_of_double out.Irsim.Interp.result;
                ops = out.Irsim.Interp.fp_ops;
                work = binary.Compiler.Driver.work;
              }
              :: !outs
        end)
      (List.combine configs compiled);
    (List.rev !outs, List.rev !fails)
  in
  (* One O(n) pass instead of an O(configs) scan per lookup: the
     comparison stage below performs 2 lookups per (pair, level) plus 2
     per (personality, level), which made the old List.find_opt
     quadratic in the number of configurations. *)
  let by_config = Hashtbl.create 32 in
  List.iter
    (fun o ->
      Hashtbl.replace by_config
        (o.config.Compiler.Config.personality, o.config.Compiler.Config.level)
        o)
    outputs;
  let find personality level = Hashtbl.find_opt by_config (personality, level) in
  let cross, within =
    Obs.Span.with_span "difftest.compare" @@ fun () ->
    let cross =
      List.concat_map
        (fun level ->
          List.filter_map
            (fun (a, b) ->
              match (find a level, find b level) with
              | Some left, Some right ->
                Some ((a, b), compare_outputs level left right)
              | _ -> None)
            Compiler.Personality.pairs)
        (Array.to_list Compiler.Optlevel.all)
    in
    let within =
      List.concat_map
        (fun personality ->
          List.filter_map
            (fun level ->
              if level = Compiler.Optlevel.O0_nofma then None
              else
                match
                  ( find personality Compiler.Optlevel.O0_nofma,
                    find personality level )
                with
                | Some baseline, Some other ->
                  Some (personality, compare_outputs level baseline other)
                | _ -> None)
            (Array.to_list Compiler.Optlevel.all))
        (Array.to_list Compiler.Personality.all)
    in
    (cross, within)
  in
  let cross_hits =
    List.fold_left (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
      0 cross
  in
  Obs.Metrics.incr m_programs;
  Obs.Metrics.incr ~by:(List.length cross) m_cross;
  Obs.Metrics.incr ~by:(List.length within) m_within;
  Obs.Metrics.incr ~by:cross_hits m_cross_incons;
  Obs.Metrics.incr
    ~by:
      (List.fold_left
         (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
         0 within)
    m_within_incons;
  List.iter
    (fun (_, c) ->
      if c.inconsistent then Obs.Metrics.observe m_digits (float_of_int c.digits))
    cross;
  if Obs.Trace.on () then begin
    let slot = Obs.Trace.current_slot () in
    List.iter
      (fun (pair, c) ->
        if c.inconsistent then
          Obs.Trace.emit
            (Obs.Event.Inconsistency_found
               {
                 slot;
                 pair = Compiler.Personality.pair_name pair;
                 level = Compiler.Optlevel.name c.level;
                 left_hex = c.left.hex;
                 right_hex = c.right.hex;
                 digits = c.digits;
               }))
      cross;
    Obs.Trace.emit
      (Obs.Event.Compared
         {
           slot;
           cross = List.length cross;
           within = List.length within;
           inconsistent = cross_hits;
         })
  end;
  {
    outputs;
    failures;
    cross;
    within;
    total_work = List.fold_left (fun acc o -> acc + o.work) 0 outputs;
    total_ops = List.fold_left (fun acc o -> acc + o.ops) 0 outputs;
  }

(* The coverage projection: one ledger key per inconsistent comparison,
   cross first then within, each list in its construction (level-major)
   order — the deterministic feed order of the campaign's ledger. *)
let coverage_keys result =
  let key kind pair (c : comparison) =
    {
      Obs.Coverage.kind;
      pair;
      level = Compiler.Optlevel.name c.level;
      classes = Fp.Bits.class_pair_name c.class_left c.class_right;
    }
  in
  List.filter_map
    (fun (pair, c) ->
      if c.inconsistent then
        Some (key "cross" (Compiler.Personality.pair_name pair) c)
      else None)
    result.cross
  @ List.filter_map
      (fun (p, c) ->
        if c.inconsistent then
          Some (key "within" (Compiler.Personality.name p) c)
        else None)
      result.within

let cross_inconsistencies result =
  List.fold_left
    (fun acc (_, c) -> if c.inconsistent then acc + 1 else acc)
    0 result.cross

let has_inconsistency result = cross_inconsistencies result > 0
