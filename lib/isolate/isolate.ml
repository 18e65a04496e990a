type verdict =
  | No_inconsistency
  | Isolated of int list
  | Runtime_divergence

let verdict_name = function
  | No_inconsistency -> "no_inconsistency"
  | Isolated _ -> "isolated"
  | Runtime_divergence -> "runtime_divergence"

let m_runs = Obs.Metrics.counter "isolate.runs"
let m_isolated = Obs.Metrics.counter "isolate.verdicts.isolated"
let m_runtime = Obs.Metrics.counter "isolate.verdicts.runtime_divergence"
let m_agree = Obs.Metrics.counter "isolate.verdicts.no_inconsistency"
let m_hybrids = Obs.Metrics.counter "isolate.hybrid_compiles"

let m_strict_set =
  Obs.Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]
    "isolate.strict_set_size"

(* Apply a config's pass pipeline, but keep the statements selected by
   [strict] in their plain lowered form. Statement positions are stable
   because no pass inserts or deletes top-level statements when dead-store
   elimination is off, so the optimized and strict bodies align 1:1. *)
let hybrid_compile (config : Compiler.Config.t) (program : Lang.Ast.program)
    ~strict =
  Obs.Metrics.incr m_hybrids;
  Obs.Span.with_span "isolate.hybrid_compile" @@ fun () ->
  let applied = Compiler.Config.effective config program.Lang.Ast.precision in
  let no_dce = { applied with Compiler.Config.dce = false } in
  match Analysis.Validate.check program with
  | Error issues ->
    Error
      (String.concat "; "
         (List.map Analysis.Validate.issue_to_string issues))
  | Ok () -> begin
    match Irsim.Lower.program program with
    | exception Irsim.Lower.Error msg -> Error msg
    | plain ->
      let optimized =
        let ir = Irsim.Fold.run no_dce.Compiler.Config.fold plain in
        let ir =
          match no_dce.Compiler.Config.fastmath with
          | None -> ir
          | Some fm -> Irsim.Fastmath.run fm ir
        in
        Irsim.Contract.run no_dce.Compiler.Config.contract ir
      in
      if
        List.length optimized.Irsim.Ir.body
        <> List.length plain.Irsim.Ir.body
      then Error "internal: pass pipeline changed statement count"
      else begin
        let body =
          List.mapi
            (fun i opt_stmt ->
              if strict i then List.nth plain.Irsim.Ir.body i else opt_stmt)
            optimized.Irsim.Ir.body
        in
        let ir = { optimized with Irsim.Ir.body } in
        Ok
          (Compiler.Driver.of_ir ~config:no_dce ~program ~work:0 ir)
      end
  end

let hex binary inputs = Compiler.Driver.run_hex binary inputs

(* ddmin-style minimization: repeatedly try to drop chunks of the strict
   set while the fix still holds. *)
let minimize ~fixes universe =
  let rec shrink set chunk =
    if chunk = 0 then set
    else begin
      let arr = Array.of_list set in
      let n = Array.length arr in
      let removed = ref None in
      let i = ref 0 in
      while !removed = None && !i < n do
        let lo = !i and hi = min n (!i + chunk) in
        let candidate =
          Array.to_list arr
          |> List.filteri (fun j _ -> j < lo || j >= hi)
        in
        if List.length candidate < List.length set && fixes candidate then
          removed := Some candidate;
        i := !i + chunk
      done;
      match !removed with
      | Some candidate -> shrink candidate chunk
      | None -> shrink set (chunk / 2)
    end
  in
  let n = List.length universe in
  shrink universe (max 1 (n / 2))

let isolate ~program ~inputs ~suspect ~reference =
  Obs.Span.with_span "isolate.isolate" @@ fun () ->
  Obs.Metrics.incr m_runs;
  let tally = function
    | No_inconsistency -> Obs.Metrics.incr m_agree
    | Runtime_divergence -> Obs.Metrics.incr m_runtime
    | Isolated set ->
      Obs.Metrics.incr m_isolated;
      Obs.Metrics.observe m_strict_set (float_of_int (List.length set))
  in
  Result.map
    (fun v ->
      tally v;
      v)
  @@
  match
    ( Compiler.Driver.compile suspect program,
      Compiler.Driver.compile reference program )
  with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok suspect_bin, Ok reference_bin ->
    let target = hex reference_bin inputs in
    if hex suspect_bin inputs = target then Ok No_inconsistency
    else begin
      let n = List.length program.Lang.Ast.body in
      let fixes set =
        match
          hybrid_compile suspect program ~strict:(fun i -> List.mem i set)
        with
        | Error _ -> false
        | Ok hybrid -> hex hybrid inputs = target
      in
      let all = List.init n Fun.id in
      if not (fixes all) then Ok Runtime_divergence
      else Ok (Isolated (minimize ~fixes all))
    end

let verdict_to_string (program : Lang.Ast.program) = function
  | No_inconsistency -> "no inconsistency on these inputs"
  | Runtime_divergence ->
    "runtime divergence: strictifying every statement does not reconcile \
     the outputs — the cause is in the math library, FTZ, or branch \
     semantics, not in a per-statement transformation"
  | Isolated indices ->
    let quoted =
      List.map
        (fun i ->
          let stmt = List.nth program.Lang.Ast.body i in
          let line =
            match Lang.Pp.stmt_to_lines program.Lang.Ast.precision 0 stmt with
            | first :: _ -> first
            | [] -> "<empty>"
          in
          Printf.sprintf "  [%d] %s" i line)
        indices
    in
    Printf.sprintf
      "isolated to %d statement(s) — strictifying them reconciles the \
       outputs:\n%s"
      (List.length indices)
      (String.concat "\n" quoted)

type classification = {
  agree : int;
  isolated_one : int;
  isolated_many : int;
  runtime : int;
  failed : int;
}

let classify ~suspect ~reference cases =
  List.fold_left
    (fun acc (program, inputs) ->
      match isolate ~program ~inputs ~suspect ~reference with
      | Error _ -> { acc with failed = acc.failed + 1 }
      | Ok No_inconsistency -> { acc with agree = acc.agree + 1 }
      | Ok Runtime_divergence -> { acc with runtime = acc.runtime + 1 }
      | Ok (Isolated [ _ ]) -> { acc with isolated_one = acc.isolated_one + 1 }
      | Ok (Isolated _) -> { acc with isolated_many = acc.isolated_many + 1 })
    { agree = 0; isolated_one = 0; isolated_many = 0; runtime = 0; failed = 0 }
    cases

let classification_to_string c =
  Printf.sprintf
    "agree: %d; isolated to one statement: %d; to several: %d; \
     runtime-level: %d; compile failures: %d"
    c.agree c.isolated_one c.isolated_many c.runtime c.failed
