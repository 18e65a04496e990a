type binary = {
  config : Config.t;
  program : Lang.Ast.program;
  ir : Irsim.Ir.t;
  vm : Irsim.Vm.program;
  work : int;
}

type engine = Vm

let engine_name Vm = "vm"
let engine () = Vm

let m_compile_ok = Obs.Metrics.counter "compiler.compile.ok"
let m_compile_error = Obs.Metrics.counter "compiler.compile.error"
let m_front_runs = Obs.Metrics.counter "compiler.frontend.runs"
let m_front_hits = Obs.Metrics.counter "compiler.frontend.cache_hits"
let m_work = Obs.Metrics.counter "compiler.work"
let m_runs = Obs.Metrics.counter "compiler.runs"
let m_fp_ops = Obs.Metrics.counter "compiler.fp_ops"
let m_retries = Obs.Metrics.counter "retry.compiler.retries"
let m_exhausted = Obs.Metrics.counter "retry.compiler.exhausted"
let max_attempts = 3

(* Transient-failure policy shared by every driver stage: the stage
   entry point is re-attempted up to [max_attempts] times with
   deterministic exponential backoff charged to the attached simulated
   clock; exhaustion re-raises the original failure. The stages
   themselves are deterministic, so a retry repeats the work exactly. *)
let inject_with_retry stage =
  let rec go attempt =
    match Exec.Faults.inject stage with
    | () -> ()
    | exception (Exec.Faults.Transient _ as e) ->
        if attempt >= max_attempts then begin
          Obs.Metrics.incr m_exhausted;
          raise e
        end
        else begin
          Obs.Metrics.incr m_retries;
          Obs.Span.charge_sim (Exec.Faults.backoff ~attempt);
          go (attempt + 1)
        end
  in
  go 1

let rec body_size body =
  List.fold_left
    (fun acc (s : Irsim.Ir.stmt) ->
      acc
      +
      match s with
      | Irsim.Ir.Store (_, e) -> 1 + Irsim.Ir.expr_size e
      | Irsim.Ir.Store_arr (_, _, e) -> 2 + Irsim.Ir.expr_size e
      | Irsim.Ir.If { lhs; rhs; body; _ } ->
        1 + Irsim.Ir.expr_size lhs + Irsim.Ir.expr_size rhs + body_size body
      | Irsim.Ir.For { body; _ } -> 2 + body_size body)
    0 body

let pipeline (config : Config.t) ir =
  let ir = Irsim.Fold.run config.fold ir in
  let ir =
    match config.fastmath with
    | None -> ir
    | Some fm -> Irsim.Fastmath.run fm ir
  in
  let ir = Irsim.Contract.run config.contract ir in
  if config.dce then Irsim.Dce.run ir else ir

(* ------------------------------------------------------------------ *)
(* Front end: validate + lower, once per program. The host C and device
   CUDA translation units are two renderings of one AST and lower to the
   same IR (the [front-end-ir] property suite pins this), so the whole
   configuration matrix shares a single front-end pass. *)

type target = [ `Host | `Device ]

type front = {
  f_program : Lang.Ast.program;
  f_ir : Irsim.Ir.t;  (* lowered, before the pass pipeline *)
}

type fronts = {
  program : Lang.Ast.program;
  lock : Mutex.t;
  mutable front : (front, string) result option;
}

let target_of (config : Config.t) : target =
  if Personality.is_host config.personality then `Host else `Device

(* Error strings carry no configuration name; [compile_with] prefixes
   the config so per-configuration failure messages keep their historic
   shape ("<config>: …" / "<config>: lowering: …"). *)
let run_front_end program =
  Obs.Span.with_span "compiler.front_end" @@ fun () ->
  inject_with_retry Exec.Faults.Front_end;
  Obs.Metrics.incr m_front_runs;
  match Analysis.Validate.check program with
  | Error issues ->
    Error
      (String.concat "; " (List.map Analysis.Validate.issue_to_string issues))
  | Ok () -> begin
    match Irsim.Lower.program program with
    | exception Irsim.Lower.Error msg ->
      Error (Printf.sprintf "lowering: %s" msg)
    | ir -> Ok { f_program = program; f_ir = ir }
  end

let fronts program = { program; lock = Mutex.create (); front = None }

let front_end fronts (_ : target) =
  Mutex.lock fronts.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock fronts.lock)
    (fun () ->
      match fronts.front with
      | Some r ->
        Obs.Metrics.incr m_front_hits;
        r
      | None ->
        let r = run_front_end fronts.program in
        fronts.front <- Some r;
        r)

(* ------------------------------------------------------------------ *)
(* Back end: the configuration's pass pipeline over the shared
   (immutable) lowered IR. *)

(* Every binary carries its flattened program: the flatten pass runs
   exactly once per back-end output, so run-many execution never
   re-walks the tree. *)
let of_ir ~(config : Config.t) ~program ~work ir =
  { config; program; ir; vm = Irsim.Vm.flatten (Config.runtime config) ir; work }

let source binary =
  match target_of binary.config with
  | `Host -> Lang.Pp.to_c binary.program
  | `Device -> Lang.Pp.to_cuda binary.program

let back_end (config : Config.t) (front : front) =
  inject_with_retry Exec.Faults.Back_end;
  let applied = Config.effective config front.f_program.Lang.Ast.precision in
  let ir = pipeline applied front.f_ir in
  of_ir ~config:applied ~program:front.f_program ~work:(body_size ir.body) ir

let compile_with fronts (config : Config.t) =
  Obs.Span.with_span "compiler.compile" @@ fun () ->
  let result =
    match front_end fronts (target_of config) with
    | Error msg -> Error (Printf.sprintf "%s: %s" (Config.name config) msg)
    | Ok front ->
      Ok (Obs.Span.with_span "compiler.back_end" (fun () -> back_end config front))
  in
  (match result with
  | Ok binary ->
    Obs.Metrics.incr m_compile_ok;
    Obs.Metrics.incr ~by:binary.work m_work;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Event.Compiled
           {
             slot = Obs.Trace.current_slot ();
             config = Config.name config;
             ok = true;
             work = binary.work;
           })
  | Error _ ->
    Obs.Metrics.incr m_compile_error;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Event.Compiled
           {
             slot = Obs.Trace.current_slot ();
             config = Config.name config;
             ok = false;
             work = 0;
           }));
  result

let compile (config : Config.t) (program : Lang.Ast.program) =
  compile_with (fronts program) config

let execute binary inputs =
  Obs.Span.with_span "compiler.interp" @@ fun () ->
  inject_with_retry Exec.Faults.Execution;
  Irsim.Vm.run binary.vm inputs

let account binary (out : Irsim.Interp.outcome) =
  Obs.Metrics.incr m_runs;
  Obs.Metrics.incr ~by:out.Irsim.Interp.fp_ops m_fp_ops;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Event.Executed
         {
           slot = Obs.Trace.current_slot ();
           config = Config.name binary.config;
           hex = Fp.Bits.hex_of_double out.Irsim.Interp.result;
           ops = out.Irsim.Interp.fp_ops;
         })

let run binary inputs =
  let out = execute binary inputs in
  account binary out;
  out

let run_hex binary inputs = Fp.Bits.hex_of_double (run binary inputs).result

let matrix ?configs ?(jobs = 1) program =
  let configs =
    match configs with Some cs -> cs | None -> Config.all ()
  in
  let fronts = fronts program in
  let slot = Obs.Trace.current_slot () in
  let compile_one config =
    match compile_with fronts config with
    | Ok binary -> Either.Left (config, binary)
    | Error msg -> Either.Right (config, msg)
  in
  let task (lane, config) =
    (* Re-establish the caller's slot context inside pool workers so
       Compiled events stay correlated, and lane-stamp by matrix index
       so ordered sinks can serialize them deterministically. *)
    let go () = Obs.Trace.with_lane lane (fun () -> compile_one config) in
    match slot with
    | Some s -> Obs.Trace.with_slot s go
    | None -> go ()
  in
  Exec.Pool.map ~jobs task (List.mapi (fun i c -> (i, c)) configs)
