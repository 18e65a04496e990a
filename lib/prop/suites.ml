type result = {
  suite : string;
  iterations : int;
  failure : string option;
  replay_seed : int64 option;
}

type suite = {
  name : string;
  doc : string;
  run : ?count:int -> seed:int64 -> unit -> result;
  replay : int64 -> result;
}

let passed r = r.failure = None

let to_result name print = function
  | Engine.Pass n ->
      { suite = name; iterations = n; failure = None; replay_seed = None }
  | Engine.Fail f ->
      {
        suite = name;
        iterations = f.Engine.iteration;
        failure = Some (Engine.pp_failure print f);
        replay_seed = Some f.Engine.case_seed;
      }

let make_suite name doc arb prop =
  {
    name;
    doc;
    run =
      (fun ?count ~seed () ->
        to_result name arb.Engine.print (Engine.run ?count ~seed arb prop));
    replay =
      (fun seed -> to_result name arb.Engine.print (Engine.run_case ~seed arb prop));
  }

(* ------------------------------------------------------------------ *)
(* Shared machinery *)

let strict_rt =
  { Irsim.Interp.libm = Mathlib.Libm.Glibc; ftz = false; nan_cmp_taken = false }

let strict_result p inputs =
  (Irsim.Interp.run strict_rt (Irsim.Lower.program p) inputs).Irsim.Interp.result

let same_bits a b =
  Int64.bits_of_float a = Int64.bits_of_float b
  || (Float.is_nan a && Float.is_nan b)

(* Floats spread over many binades: where EFT identities are exact and
   where rounding differences actually live. *)
let gen_eft_float rng =
  let m = Util.Rng.float_in rng (-1.0) 1.0 in
  let e = Util.Rng.int_in rng (-100) 100 in
  ldexp m e

let eft_pair =
  Engine.make
    ~shrink:(Engine.Shrink.pair Engine.Shrink.float Engine.Shrink.float)
    ~print:(fun (a, b) -> Printf.sprintf "a = %h, b = %h" a b)
    (Engine.Gen.pair gen_eft_float gen_eft_float)

(* ------------------------------------------------------------------ *)
(* Generator invariants *)

let gen_valid =
  make_suite "gen-valid"
    "Varity-generated programs pass the static validator" Arb.program
    Analysis.Validate.is_valid

let gen_inputs_match =
  make_suite "gen-inputs-match"
    "generated input vectors match the program's parameters" Arb.case
    (fun (p, inputs) -> Irsim.Inputs.matches p inputs)

(* ------------------------------------------------------------------ *)
(* Interpreter / pass invariants (strict mode) *)

let interp_total =
  make_suite "interp-total"
    "the interpreter never raises on validated generated programs" Arb.case
    (fun (p, inputs) ->
      ignore (strict_result p inputs);
      true)

let fold_preserves =
  make_suite "fold-preserves"
    "arithmetic constant folding preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let folded =
        Irsim.Fold.run { Irsim.Fold.fold_arith = true; fold_calls = None } ir
      in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt folded inputs).Irsim.Interp.result in
      same_bits a b)

let dce_preserves =
  make_suite "dce-preserves"
    "dead-code elimination preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let swept = Irsim.Dce.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt swept inputs).Irsim.Interp.result in
      same_bits a b)

let forward_preserves =
  make_suite "forward-preserves"
    "expression forwarding preserves strict-mode bits" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let fwd = Irsim.Forward.run ir in
      let a = (Irsim.Interp.run strict_rt ir inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt fwd inputs).Irsim.Interp.result in
      same_bits a b)

let contract_idempotent =
  make_suite "contract-idempotent"
    "FMA contraction applied twice equals applied once" Arb.case
    (fun (p, inputs) ->
      let ir = Irsim.Lower.program p in
      let once = Irsim.Contract.run Irsim.Contract.Syntactic ir in
      let twice = Irsim.Contract.run Irsim.Contract.Syntactic once in
      let a = (Irsim.Interp.run strict_rt once inputs).Irsim.Interp.result in
      let b = (Irsim.Interp.run strict_rt twice inputs).Irsim.Interp.result in
      same_bits a b)

(* ------------------------------------------------------------------ *)
(* Codec fixpoints *)

let pp_parse_fixpoint =
  make_suite "pp-parse-fixpoint"
    "print -> parse -> print is a fixpoint on the C rendering" Arb.program
    (fun p ->
      let printed = Lang.Pp.to_c p in
      match Cparse.Parse.program printed with
      | Error _ -> false
      | Ok p' -> Lang.Pp.to_c p' = printed)

(* Programs from every generator the campaign draws from: Varity (also
   at single precision), the three LLM prompt shapes (their text
   admitted through parse + validate, as the campaign admits it), and
   archived-case growth. *)
let llm_program rng prompt =
  let client = Llm.Client.create ~seed:(Util.Rng.int rng 1_000_000) () in
  let rec admit tries =
    let source = (Llm.Client.generate client prompt).Llm.Client.source in
    match Cparse.Parse.program source with
    | Ok p when Analysis.Validate.is_valid p -> p
    | _ when tries > 1 -> admit (tries - 1)
    | _ -> Gen.Varity.generate rng (* never seen: the mock errs rarely *)
  in
  admit 8

let generators =
  [| ("varity", fun rng _ -> Arb.program.Engine.gen rng);
     ("varity-fp32",
      fun rng _ ->
        { (Gen.Varity.generate rng) with Lang.Ast.precision = Lang.Ast.F32 });
     ("direct", fun rng precision ->
        llm_program rng (Llm.Prompt.Direct { precision }));
     ("grammar", fun rng precision ->
        llm_program rng (Llm.Prompt.Grammar { precision }));
     ("mutate", fun rng precision ->
        let example = Gen.Varity.generate rng in
        llm_program rng (Llm.Prompt.Mutate { precision; example }));
     ("grow", fun rng _ -> Gen.Grow.grow rng (Gen.Varity.generate rng)) |]

let gen_any_program rng =
  let precision = if Util.Rng.bool rng then Lang.Ast.F64 else Lang.Ast.F32 in
  let name, gen = Util.Rng.choose rng generators in
  (name, gen rng precision)

let any_program =
  Engine.make
    ~shrink:(fun (kind, p) ->
      Seq.map (fun p' -> (kind, p')) (Arb.shrink_program p))
    ~print:(fun (kind, p) ->
      Printf.sprintf "generator = %s\n%s" kind (Lang.Pp.to_c p))
    gen_any_program

(* Canonical bytes: equal exactly when the two IRs are structurally
   identical down to every float's bit pattern (NaN payloads and the
   sign of zero included), regardless of sharing. *)
let ir_bytes (ir : Irsim.Ir.t) = Marshal.to_string ir [ Marshal.No_sharing ]

let front_end_ir =
  make_suite "front-end-ir"
    "the C and CUDA renderings of any generated program parse, validate \
     and lower to the program's own IR, at its precision"
    any_program
    (fun (_, p) ->
      let direct = ir_bytes (Irsim.Lower.program p) in
      let through render =
        match Cparse.Parse.program (render p) with
        | Error _ -> false
        | Ok p' ->
          Analysis.Validate.is_valid p'
          && p'.Lang.Ast.precision = p.Lang.Ast.precision
          && ir_bytes (Irsim.Lower.program p') = direct
      in
      through Lang.Pp.to_c && through Lang.Pp.to_cuda)

let gen_archive_case rng =
  let p, inputs = Gen.Varity.gen_case rng in
  let r = strict_result p inputs in
  (* a second side with deliberately different bits: the codec does not
     care whether the divergence is physical *)
  let r' = if Float.is_nan r then 0.0 else Float.succ r in
  let side config v =
    {
      Difftest.Case.config;
      hex = Fp.Bits.hex_of_double v;
      class_ = Fp.Bits.classify v;
    }
  in
  let level = Util.Rng.choose rng Compiler.Optlevel.all in
  {
    Difftest.Case.kind =
      (if Util.Rng.bool rng then Difftest.Case.Cross else Difftest.Case.Within);
    left = side (Compiler.Config.make Compiler.Personality.Gcc level) r;
    right = side (Compiler.Config.make Compiler.Personality.Clang level) r';
    level;
    digits = Fp.Digits.diff_count r r';
    source = Lang.Pp.to_c p;
    inputs;
    seed = Util.Rng.int_in rng 0 1_000_000;
    slot = Util.Rng.int_in rng 0 10_000;
  }

let case_codec_roundtrip =
  make_suite "case-codec-roundtrip"
    "Case JSON encode/decode is the identity (bit-exact inputs)"
    (Engine.make
       ~print:(fun c -> Obs.Json.to_string (Difftest.Case.to_json c))
       gen_archive_case)
    (fun c ->
      match Difftest.Case.of_json (Difftest.Case.to_json c) with
      | Error _ -> false
      | Ok c' ->
          Difftest.Case.fingerprint c = Difftest.Case.fingerprint c'
          && Obs.Json.to_string (Difftest.Case.to_json c')
             = Obs.Json.to_string (Difftest.Case.to_json c))

(* ------------------------------------------------------------------ *)
(* Digit metric *)

(* Finite floats across the full double range plus the awkward corners
   (zeros, subnormals, extremes), and the occasional non-finite value:
   [decompose_result] must be total on all of them. *)
let gen_digit_float rng =
  match Util.Rng.int_in rng 0 9 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> Float.min_float /. 4.0 (* subnormal *)
  | 3 -> Float.max_float
  | 4 -> infinity
  | 5 -> nan
  | _ -> ldexp (Util.Rng.float_in rng (-1.0) 1.0) (Util.Rng.int_in rng (-300) 300)

let digit_float =
  Engine.make ~print:(fun x -> Printf.sprintf "%h" x) gen_digit_float

let digits_total =
  make_suite "digits-total"
    "decompose_result is total: 16 digits on finite, typed error otherwise"
    digit_float
    (fun x ->
      match Fp.Digits.decompose_result x with
      | Ok (_, digits, _) ->
          Float.is_finite x
          && String.length digits = 16
          && String.for_all (fun c -> c >= '0' && c <= '9') digits
      | Error (Fp.Digits.Non_finite y) ->
          (not (Float.is_finite x)) && same_bits x y
      | Error (Fp.Digits.Malformed _) -> false)

(* ------------------------------------------------------------------ *)
(* RNG draw discipline *)

(* Probabilities including the boundaries and out-of-range values: the
   schedule endpoints are exactly where a shortcut would skip the draw
   and desync every replayed stream behind it. *)
let chance_case =
  Engine.make
    ~print:(fun (seed, p) -> Printf.sprintf "seed = %d, p = %.6f" seed p)
    (fun rng ->
      let seed = Util.Rng.int_in rng 0 1_000_000 in
      let p =
        match Util.Rng.int_in rng 0 5 with
        | 0 -> 0.0
        | 1 -> 1.0
        | 2 -> -0.25
        | 3 -> 1.25
        | _ -> Util.Rng.float rng 1.0
      in
      (seed, p))

let chance_one_draw =
  make_suite "chance-one-draw"
    "Rng.chance burns exactly one uniform draw at every p, boundaries \
     included, and decides by comparing that draw"
    chance_case
    (fun (seed, p) ->
      let a = Util.Rng.of_int seed in
      let b = Util.Rng.of_int seed in
      let c = Util.Rng.chance a p in
      let u = Util.Rng.float b 1.0 in
      c = (u < p) && Util.Rng.state a = Util.Rng.state b)

(* ------------------------------------------------------------------ *)
(* Error-free transformations *)

let eft_two_sum =
  make_suite "eft-two-sum"
    "two_sum matches magnitude-ordered fast_two_sum exactly" eft_pair
    (fun (a, b) ->
      let s, e = Fp.Eft.two_sum a b in
      let s2, e2 =
        if Float.abs a >= Float.abs b then Fp.Eft.fast_two_sum a b
        else Fp.Eft.fast_two_sum b a
      in
      s = a +. b && same_bits s s2 && same_bits e e2)

let eft_two_prod =
  make_suite "eft-two-prod"
    "two_prod error equals fma(a, b, -p) exactly" eft_pair
    (fun (a, b) ->
      let p, e = Fp.Eft.two_prod a b in
      p = a *. b && same_bits e (Float.fma a b (-.p)))

(* ------------------------------------------------------------------ *)
(* Diversity metrics *)

let tokens p =
  Cparse.Lex.tokens (Lang.Pp.compute_to_string p)
  |> List.map Cparse.Lex.to_string

let program_pair =
  Engine.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%s\n--- vs ---\n%s" (Lang.Pp.to_c a) (Lang.Pp.to_c b))
    (fun rng ->
      let a = Gen.Varity.generate rng in
      let b = Gen.Varity.generate rng in
      (a, b))

let bleu_range =
  make_suite "bleu-range" "BLEU score of any program pair lies in [0, 1]"
    program_pair
    (fun (a, b) ->
      let ta = Diversity.Bleu.table (tokens a) in
      let tb = Diversity.Bleu.table (tokens b) in
      let s =
        Diversity.Bleu.score ~candidate:ta ~reference:tb
          (Diversity.Bleu.matched ta tb)
      in
      s >= 0.0 && s <= 1.0)

let bleu_self =
  make_suite "bleu-self" "BLEU self-score of any program is 1" Arb.program
    (fun p ->
      let t = Diversity.Bleu.table (tokens p) in
      let s =
        Diversity.Bleu.score ~candidate:t ~reference:t
          (Diversity.Bleu.matched t t)
      in
      Float.abs (s -. 1.0) < 1e-9)

(* The program with its declarations only, each initialized by a
   literal: tokens and subtrees remain, def-use edges do not. *)
let edgeless (p : Lang.Ast.program) =
  let decl = function
    | Lang.Ast.Decl { name; _ } ->
      Some (Lang.Ast.Decl { name; init = Lang.Ast.Lit 0.5 })
    | _ -> None
  in
  { p with body = List.filter_map decl p.body }

let empty (p : Lang.Ast.program) = { p with body = [] }

(* Independent pairs, self pairs, and pairs where either side has no
   dataflow edges or no statements at all: the branches where a
   component's denominator is zero. *)
let scored_pair =
  let prog = Arb.program.Engine.gen in
  Engine.make
    ~shrink:(Engine.Shrink.pair Arb.program.Engine.shrink
               Arb.program.Engine.shrink)
    ~print:program_pair.Engine.print
    (Engine.Gen.frequency
       [ (4, Engine.Gen.pair prog prog);
         (2, Engine.Gen.map (fun p -> (p, p)) prog);
         (1, Engine.Gen.map2 (fun a b -> (edgeless a, b)) prog prog);
         (1, Engine.Gen.map2 (fun a b -> (a, edgeless b)) prog prog);
         (1, Engine.Gen.map (fun p -> (edgeless p, edgeless p)) prog);
         (1, Engine.Gen.map2 (fun a b -> (empty a, b)) prog prog) ])

let codebleu_ref =
  make_suite "codebleu-ref"
    "merge-join CodeBLEU equals the string-keyed reference bit for bit, \
     in both directions"
    scored_pair
    (fun (a, b) ->
      let sa = Diversity.Codebleu.summarize a
      and sb = Diversity.Codebleu.summarize b in
      let ra = Codebleu_ref.summarize a and rb = Codebleu_ref.summarize b in
      let bits x = Int64.bits_of_float x in
      bits (Diversity.Codebleu.pair_score ~candidate:sa ~reference:sb)
      = bits (Codebleu_ref.pair_score ~candidate:ra ~reference:rb)
      && bits (Diversity.Codebleu.pair_score ~candidate:sb ~reference:sa)
         = bits (Codebleu_ref.pair_score ~candidate:rb ~reference:ra))

(* ------------------------------------------------------------------ *)
(* Math library against its list-based reference *)

let gen_libm_float rng =
  match Util.Rng.int rng 4 with
  | 0 -> Util.Rng.choose rng Libm_ref.edges
  | 1 ->
    (* any binade, subnormals included *)
    ldexp (Util.Rng.float_in rng (-1.0) 1.0) (Util.Rng.int_in rng (-1074) 1024)
  | 2 -> ldexp (Util.Rng.float_in rng (-1.0) 1.0) (-1022) (* subnormal *)
  | _ -> Util.Rng.float_in rng (-20.0) 20.0

let libm_ref =
  make_suite "libm-ref"
    "call1, call2 and call equal the list-based reference bit for bit, \
     for every flavor, function and precision"
    (Engine.make
       ~shrink:(Engine.Shrink.pair Engine.Shrink.float Engine.Shrink.float)
       ~print:(fun (x, y) -> Printf.sprintf "x = %h, y = %h" x y)
       (fun rng ->
         let x = gen_libm_float rng in
         (* equal, opposite, signed-zero and NaN operands tell the
            min/max selects apart *)
         let zero_or_nan () =
           Util.Rng.choose rng [| 0.0; -0.0; Float.nan; -.Float.nan |]
         in
         match Util.Rng.int rng 5 with
         | 0 -> (x, x)
         | 1 -> (x, -.x)
         | 2 -> (zero_or_nan (), zero_or_nan ())
         | _ -> (x, gen_libm_float rng)))
    (fun (x, y) -> Libm_ref.agrees x y)

(* ------------------------------------------------------------------ *)
(* Execution-engine equivalence *)

(* A generated case plus a uniformly drawn configuration index: the VM
   must agree with the tree interpreter under every runtime the matrix
   can produce (libm flavor, FTZ, NaN-branch polarity, precision), not
   just strict mode. Shrinking minimizes the program/inputs and keeps
   the configuration fixed. *)
let vm_configs = Compiler.Config.all ()

let vm_case =
  {
    Engine.gen =
      (fun rng ->
        let case = Arb.case.Engine.gen rng in
        let k = Util.Rng.int_in rng 0 (List.length vm_configs - 1) in
        (case, k));
    shrink =
      (fun (case, k) ->
        Seq.map (fun c -> (c, k)) (Arb.case.Engine.shrink case));
    print =
      (fun (case, k) ->
        Printf.sprintf "config = %s\n%s"
          (Compiler.Config.name (List.nth vm_configs k))
          (Arb.case.Engine.print case));
  }

let vm_equiv =
  make_suite "vm-equiv"
    "the flattened VM is bit-identical to the tree interpreter under \
     every configuration"
    vm_case
    (fun ((p, inputs), k) ->
      let config = List.nth vm_configs k in
      match Compiler.Driver.compile config p with
      | Error _ -> true (* nothing to execute *)
      | Ok binary ->
        let rt = Compiler.Config.runtime binary.Compiler.Driver.config in
        let tree = Irsim.Interp.run rt binary.Compiler.Driver.ir inputs in
        let vm = Irsim.Vm.run binary.Compiler.Driver.vm inputs in
        same_bits tree.Irsim.Interp.result vm.Irsim.Interp.result
        && tree.Irsim.Interp.fp_ops = vm.Irsim.Interp.fp_ops)

(* ------------------------------------------------------------------ *)
(* Fleet merge laws *)

(* A fixed pool of completed chunk outcomes, built once per process:
   real mini-campaigns supply stats and coverage ledgers with populated
   cross/within matrices, and per-chunk archive cases come from the
   same generator the codec suite uses. Random subsets of one pool can
   never conflict (equal chunk ids carry equal bytes), which is exactly
   the regime Harness.Fleet.merge_outcomes promises its laws under. *)
let fleet_pool =
  lazy
    (List.init 6 (fun k ->
         let approach = Harness.Approach.all.(k mod Array.length Harness.Approach.all) in
         let seed = Harness.Shard.chunk_seed ~seed:20250704 k in
         let o = Harness.Campaign.run ~budget:4 ~seed approach in
         let rng = Util.Rng.of_int (1000 + k) in
         let cases = List.init ((k mod 3) + 1) (fun _ -> gen_archive_case rng) in
         let cases =
           (* fingerprint-keyed first-wins, sorted: the invariant chunk
              archives hold on disk *)
           List.sort_uniq
             (fun a b ->
               compare (Difftest.Case.fingerprint a) (Difftest.Case.fingerprint b))
             cases
         in
         let outcome =
           {
             Harness.Fleet.chunk = k;
             seed;
             first_slot = (k * 4) + 1;
             budget = 4;
             approach = Harness.Approach.name approach;
             precision = "fp64";
             successful = o.Harness.Campaign.successful;
             generation_failures = o.Harness.Campaign.generation_failures;
             sim_seconds = o.Harness.Campaign.sim_seconds;
             llm_seconds = o.Harness.Campaign.llm_seconds;
             stats = o.Harness.Campaign.stats;
             coverage = o.Harness.Campaign.coverage;
             fingerprints = List.map Difftest.Case.fingerprint cases;
           }
         in
         (outcome, cases)))

(* Three independent subsets of the pool, as sorted index lists. *)
let gen_fleet_subsets rng =
  let subset () =
    List.filter (fun _ -> Util.Rng.bool rng) [ 0; 1; 2; 3; 4; 5 ]
  in
  (subset (), subset (), subset ())

let fleet_subsets =
  Engine.make
    ~print:(fun (a, b, c) ->
      let show ids = "{" ^ String.concat "," (List.map string_of_int ids) ^ "}" in
      Printf.sprintf "a=%s b=%s c=%s" (show a) (show b) (show c))
    gen_fleet_subsets

let fleet_merge =
  make_suite "fleet-merge"
    "fleet archive/stats/coverage merge is commutative, associative, idempotent"
    fleet_subsets
    (fun (ia, ib, ic) ->
      let pool = Lazy.force fleet_pool in
      let outcomes ids = List.map (fun i -> fst (List.nth pool i)) ids in
      let cases ids = List.concat_map (fun i -> snd (List.nth pool i)) ids in
      let oa, ob, oc = (outcomes ia, outcomes ib, outcomes ic) in
      let outcome_bytes os =
        String.concat ";"
          (List.map
             (fun o -> Obs.Json.to_string (Harness.Fleet.outcome_to_json o))
             os)
      in
      let merge2 x y =
        match Harness.Fleet.merge_outcomes x y with
        | Ok m -> m
        | Error msg -> failwith msg
      in
      let case_bytes cs =
        String.concat ";"
          (List.map (fun c -> Obs.Json.to_string (Difftest.Case.to_json c)) cs)
      in
      let mc = Harness.Fleet.merge_cases in
      let ca, cb, cc = (cases ia, cases ib, cases ic) in
      let stats_of os =
        List.fold_left
          (fun acc o -> Difftest.Stats.merge acc o.Harness.Fleet.stats)
          (Difftest.Stats.create ()) os
      in
      let stats_bytes s = Obs.Json.to_string (Difftest.Stats.to_json s) in
      let sa, sb, sc = (stats_of oa, stats_of ob, stats_of oc) in
      let cov_of os =
        List.fold_left
          (fun acc o -> Obs.Coverage.merge acc o.Harness.Fleet.coverage)
          (Obs.Coverage.create ()) os
      in
      let cov_bytes v = Obs.Json.to_string (Obs.Coverage.to_json v) in
      let va, vb, vc = (cov_of oa, cov_of ob, cov_of oc) in
      (* chunk-keyed outcome union: commutative, associative AND
         idempotent (the keyed-union layer supplies idempotence the raw
         ledger sums cannot) *)
      outcome_bytes (merge2 oa ob) = outcome_bytes (merge2 ob oa)
      && outcome_bytes (merge2 (merge2 oa ob) oc)
         = outcome_bytes (merge2 oa (merge2 ob oc))
      && outcome_bytes (merge2 oa oa) = outcome_bytes oa
      (* fingerprint-keyed archive union: same three laws *)
      && case_bytes (mc [ ca; cb ]) = case_bytes (mc [ cb; ca ])
      && case_bytes (mc [ mc [ ca; cb ]; cc ]) = case_bytes (mc [ ca; mc [ cb; cc ] ])
      && case_bytes (mc [ ca; ca ]) = case_bytes (mc [ ca ])
      (* raw ledger folds: commutative and associative sums (dedup is
         the keyed layer's job, so no idempotence here) *)
      && stats_bytes (Difftest.Stats.merge sa sb)
         = stats_bytes (Difftest.Stats.merge sb sa)
      && stats_bytes (Difftest.Stats.merge (Difftest.Stats.merge sa sb) sc)
         = stats_bytes (Difftest.Stats.merge sa (Difftest.Stats.merge sb sc))
      && cov_bytes (Obs.Coverage.merge va vb) = cov_bytes (Obs.Coverage.merge vb va)
      && cov_bytes (Obs.Coverage.merge (Obs.Coverage.merge va vb) vc)
         = cov_bytes (Obs.Coverage.merge va (Obs.Coverage.merge vb vc)))

let all =
  [
    gen_valid;
    gen_inputs_match;
    interp_total;
    fold_preserves;
    dce_preserves;
    forward_preserves;
    contract_idempotent;
    pp_parse_fixpoint;
    front_end_ir;
    case_codec_roundtrip;
    digits_total;
    chance_one_draw;
    eft_two_sum;
    eft_two_prod;
    bleu_range;
    bleu_self;
    codebleu_ref;
    libm_ref;
    vm_equiv;
    fleet_merge;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
