(* Tests for lib/gen: random program/input generation. *)

open Helpers

let test_determinism () =
  let a = Gen.Varity.generate (Util.Rng.of_int 5) in
  let b = Gen.Varity.generate (Util.Rng.of_int 5) in
  check_bool "same seed same program" true (Lang.Ast.equal a b)

let test_inputs_match_params () =
  let rng = Util.Rng.of_int 6 in
  for _ = 1 to 200 do
    let p, inputs = Gen.Varity.gen_case rng in
    check_bool "positional match" true (Irsim.Inputs.matches p inputs)
  done

let test_config_bounds_respected () =
  let cfg = Gen.Gen_config.varity in
  let rng = Util.Rng.of_int 7 in
  for _ = 1 to 200 do
    let p = Gen.Varity.generate rng in
    check_bool "loop bounds" true
      (Lang.Ast.max_loop_bound p <= cfg.Gen.Gen_config.loop_bound_max);
    check_bool "nesting depth" true
      (Lang.Ast.program_depth p <= cfg.Gen.Gen_config.max_block_depth + 1);
    check_bool "comp assigned" true
      (match Analysis.Validate.check p with
       | Ok () -> true
       | Error issues ->
         not (List.mem Analysis.Validate.Comp_never_assigned issues))
  done

let test_extreme_inputs_reach_big_magnitudes () =
  let rng = Util.Rng.of_int 8 in
  let big = ref false in
  for _ = 1 to 300 do
    let p, inputs = Gen.Varity.gen_case rng in
    ignore p;
    List.iter
      (fun (v : Irsim.Inputs.value) ->
        match v with
        | Irsim.Inputs.Fp x when Float.abs x > 1e100 -> big := true
        | Irsim.Inputs.Arr a when Array.exists (fun x -> Float.abs x > 1e100) a ->
          big := true
        | _ -> ())
      inputs
  done;
  check_bool "extreme magnitudes sampled" true !big

let test_sensible_inputs_bounded () =
  let cfg = Llm.Client.generation_config in
  let rng = Util.Rng.of_int 9 in
  for _ = 1 to 200 do
    let p = Gen.Generate.generate rng cfg Gen.Generate.human_naming in
    let inputs = Gen.Generate.gen_inputs rng cfg p in
    List.iter
      (fun (v : Irsim.Inputs.value) ->
        match v with
        | Irsim.Inputs.Fp x -> check_bool "bounded" true (Float.abs x <= 100.0)
        | Irsim.Inputs.Arr a ->
          Array.iter (fun x -> check_bool "bounded" true (Float.abs x <= 100.0)) a
        | Irsim.Inputs.Int n -> check_bool "small int" true (n >= 1 && n <= 10))
      inputs
  done

let test_varity_naming_style () =
  let rng = Util.Rng.of_int 10 in
  let p = Gen.Varity.generate rng in
  let names = Lang.Ast.declared_names p in
  check_bool "machine-flavored names" true
    (List.exists
       (fun n -> Util.Text.starts_with ~prefix:"var_" n
                 || Util.Text.starts_with ~prefix:"tmp" n
                 || Util.Text.starts_with ~prefix:"i" n)
       names)

let test_argv_rendering () =
  let rng = Util.Rng.of_int 11 in
  let p, inputs = Gen.Varity.gen_case rng in
  let argv = Irsim.Inputs.to_argv inputs in
  let expected =
    List.fold_left
      (fun acc (prm : Lang.Ast.param) ->
        acc
        + match prm with
          | Lang.Ast.P_fp _ | Lang.Ast.P_int _ -> 1
          | Lang.Ast.P_fp_array (_, len) -> len)
      0 p.Lang.Ast.params
  in
  Alcotest.(check int) "argv arity" expected (List.length argv)

let qcheck_gen_config_validation =
  QCheck.Test.make ~name:"invalid configs rejected" ~count:50 QCheck.small_int
    (fun n ->
      let bad = { Gen.Gen_config.varity with Gen.Gen_config.min_stmts = n + 1; max_stmts = 0 } in
      try
        Gen.Gen_config.validate bad;
        false
      with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Growth *)

(* The largest product of loop bounds along any nesting path: the
   number of times the innermost statement of the deepest nest runs. *)
let rec nest_trip_product body =
  List.fold_left
    (fun acc (s : Lang.Ast.stmt) ->
      match s with
      | Lang.Ast.For { bound; body; _ } ->
        max acc (bound * nest_trip_product body)
      | Lang.Ast.If { body; _ } -> max acc (nest_trip_product body)
      | Lang.Ast.Decl _ | Lang.Ast.Assign _ -> acc)
    1 body

(* Wrapping loops in fresh loops must stop once the nest would run more
   than the validator's per-loop cap in total: each loop is capped, but
   without this check their product grows without bound. *)
let test_grow_bounds_nest_trips () =
  let p =
    parse
      {|
void compute(double x, double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * x;
  }
}
|}
  in
  let rng = Util.Rng.of_int 11 in
  let rec go p n =
    if n > 0 then begin
      let p = Gen.Grow.grow rng p in
      check_bool "nest trip product within the loop cap" true
        (nest_trip_product p.Lang.Ast.body
        <= Analysis.Validate.max_loop_bound);
      go p (n - 1)
    end
  in
  go p 300

let () =
  Alcotest.run "gen"
    [
      ( "generate",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "inputs match params" `Quick test_inputs_match_params;
          Alcotest.test_case "config bounds" `Quick test_config_bounds_respected;
          Alcotest.test_case "extreme inputs" `Quick test_extreme_inputs_reach_big_magnitudes;
          Alcotest.test_case "sensible inputs" `Quick test_sensible_inputs_bounded;
          Alcotest.test_case "varity naming" `Quick test_varity_naming_style;
          Alcotest.test_case "argv rendering" `Quick test_argv_rendering;
          QCheck_alcotest.to_alcotest qcheck_gen_config_validation;
        ] );
      ( "grow",
        [
          Alcotest.test_case "nest trip product bounded" `Quick
            test_grow_bounds_nest_trips;
        ] );
    ]
