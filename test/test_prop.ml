(* Tests for lib/prop: the seeded property engine, its shrinkers, and
   the framework's property suites run at a fixed seed so the tier-1
   gate exercises the same invariants as [llm4fp fuzz]. *)

open Helpers

let fixed_seed = 20250704L

(* ------------------------------------------------------------------ *)
(* Engine: determinism, replay, shrinking *)

let int_arb lo hi =
  Prop.Engine.make ~shrink:Prop.Engine.Shrink.int ~print:string_of_int
    (Prop.Engine.Gen.int_in lo hi)

let test_run_deterministic () =
  let arb = int_arb 0 1_000_000 in
  let collect () =
    let acc = ref [] in
    (match
       Prop.Engine.run ~count:50 ~seed:fixed_seed arb (fun x ->
           acc := x :: !acc;
           true)
     with
    | Prop.Engine.Pass n -> check_int "all cases pass" 50 n
    | Prop.Engine.Fail _ -> Alcotest.fail "trivial property failed");
    !acc
  in
  check_bool "same seed, same case stream" true (collect () = collect ())

let test_failure_replays_from_seed () =
  let arb = int_arb 0 1_000_000 in
  (* Fails on roughly half the domain, so some iteration trips it. *)
  let prop x = x < 500_000 in
  match Prop.Engine.run ~count:200 ~seed:fixed_seed arb prop with
  | Prop.Engine.Pass _ -> Alcotest.fail "property should have failed"
  | Prop.Engine.Fail f ->
    check_bool "counterexample violates the property" false
      (prop f.Prop.Engine.counterexample);
    (* The printed seed deterministically replays the original
       (pre-shrink) counterexample. *)
    (match
       Prop.Engine.run_case ~seed:f.Prop.Engine.case_seed arb prop
     with
    | Prop.Engine.Pass _ -> Alcotest.fail "replay seed did not reproduce"
    | Prop.Engine.Fail replayed ->
      check_bool "replayed case still fails" false
        (prop replayed.Prop.Engine.counterexample));
    (* The failure report carries the replay hint. *)
    let report = Prop.Engine.pp_failure string_of_int f in
    let needle = Printf.sprintf "replay seed: %Ld" f.Prop.Engine.case_seed in
    check_bool "report prints the replay seed" true
      (Util.Text.contains_sub report needle)

let test_shrink_minimizes () =
  let arb = int_arb 0 1_000_000 in
  match Prop.Engine.run ~count:200 ~seed:fixed_seed arb (fun x -> x < 77) with
  | Prop.Engine.Pass _ -> Alcotest.fail "property should have failed"
  | Prop.Engine.Fail f ->
    (* Greedy halving toward 0 lands exactly on the boundary. *)
    check_int "shrunk to the smallest failing value" 77
      f.Prop.Engine.counterexample;
    check_bool "took shrink steps" true (f.Prop.Engine.shrink_steps > 0)

let test_shrink_int_converges () =
  let rec drive x steps =
    if steps > 100 then Alcotest.fail "Shrink.int does not converge"
    else
      match Prop.Engine.Shrink.int x () with
      | Seq.Nil -> x
      | Seq.Cons (c, _) ->
        check_bool "candidate is strictly smaller" true (abs c < abs x);
        drive c (steps + 1)
  in
  check_int "converges to 0 from above" 0 (drive 123_456 0);
  check_int "converges to 0 from below" 0 (drive (-9_999) 0)

let test_shrink_list_removes_chunks () =
  let candidates =
    List.of_seq (Prop.Engine.Shrink.list [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  check_bool "proposes candidates" true (candidates <> []);
  List.iter
    (fun c ->
      check_bool "never proposes the input itself" false
        (c = [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
      check_bool "only ever removes elements" true (List.length c < 8))
    candidates;
  (* ddmin granularity: big half-chunks first, then single elements *)
  check_bool "tries removing each half" true
    (List.mem [ 5; 6; 7; 8 ] candidates && List.mem [ 1; 2; 3; 4 ] candidates);
  check_bool "tries single-element removals" true
    (List.exists (fun c -> List.length c = 7) candidates);
  (* greedy re-application drives all the way down to the empty list *)
  let rec drive l steps =
    if steps > 50 then Alcotest.fail "greedy chunk removal does not converge"
    else
      match Prop.Engine.Shrink.list l () with
      | Seq.Nil -> l
      | Seq.Cons (c, _) -> drive c (steps + 1)
  in
  check_bool "reaches the empty list" true (drive [ 1; 2; 3; 4; 5; 6; 7; 8 ] 0 = [])

let test_gen_list_bounds () =
  let rng = Util.Rng.of_int 11 in
  for _ = 1 to 200 do
    let l = Prop.Engine.Gen.(list ~min:2 ~max:5 (int_in 0 9)) rng in
    let n = List.length l in
    check_bool "length within bounds" true (n >= 2 && n <= 5)
  done

let test_iteration_env_knob () =
  (* LLM4FP_PROP_ITERS gates the quick/full split; garbage falls back. *)
  Unix.putenv "LLM4FP_PROP_ITERS" "7";
  check_int "env override" 7 (Prop.Engine.default_count ());
  Unix.putenv "LLM4FP_PROP_ITERS" "not-a-number";
  check_int "garbage falls back to default" 60 (Prop.Engine.default_count ());
  Unix.putenv "LLM4FP_PROP_ITERS" "";
  check_int "empty falls back to default" 60 (Prop.Engine.default_count ())

(* ------------------------------------------------------------------ *)
(* Program shrinker: candidates stay valid and strictly smaller *)

let test_shrink_program_valid_and_smaller () =
  let rng = Util.Rng.of_int 31 in
  for _ = 1 to 25 do
    let p = Gen.Varity.generate rng in
    let size = Lang.Ast.program_size p in
    let saw_smaller = ref false in
    Prop.Arb.shrink_program p
    |> Seq.iter (fun c ->
           check_bool "candidate validates" true (Analysis.Validate.is_valid c);
           check_bool "candidate differs from the input" false (c = p);
           (* literal/bound rewrites keep the node count; removals and
              hoists must strictly shrink it, and nothing may grow *)
           let csize = Lang.Ast.program_size c in
           check_bool "candidate never grows" true (csize <= size);
           if csize < size then saw_smaller := true);
    check_bool "some candidate is strictly smaller" true !saw_smaller
  done

let test_shrink_inputs_preserve_arity () =
  let rng = Util.Rng.of_int 32 in
  for _ = 1 to 25 do
    let p, inputs = Gen.Varity.gen_case rng in
    Prop.Arb.shrink_inputs inputs
    |> Seq.iter (fun c ->
           check_bool "shrunk inputs still match the params" true
             (Irsim.Inputs.matches p c))
  done

(* ------------------------------------------------------------------ *)
(* The framework suites at a fixed seed (satellite properties:
   interp totality, EFT identities, BLEU range and self-score) *)

let run_suite name =
  match Prop.Suites.find name with
  | None -> Alcotest.failf "unknown suite %s" name
  | Some s ->
    let r = s.Prop.Suites.run ~count:25 ~seed:fixed_seed () in
    (match r.Prop.Suites.failure with
    | None -> ()
    | Some report -> Alcotest.failf "suite %s failed:\n%s" name report);
    check_bool "suite passed" true (Prop.Suites.passed r);
    check_int "ran the requested count" 25 r.Prop.Suites.iterations

let suite_case name =
  Alcotest.test_case name `Quick (fun () -> run_suite name)

let test_all_suites_listed () =
  check_int "twenty suites" 20 (List.length Prop.Suites.all);
  List.iter
    (fun s ->
      check_bool "documented" true (String.length s.Prop.Suites.doc > 0);
      match Prop.Suites.find s.Prop.Suites.name with
      | Some found -> check_string "find round-trips" s.Prop.Suites.name
          found.Prop.Suites.name
      | None -> Alcotest.failf "find misses %s" s.Prop.Suites.name)
    Prop.Suites.all

(* Every pair of edge arguments, exhaustively: the random suite draws
   them too, but a signed-zero or NaN pair is too rare a draw to trust
   a 25-case run with. *)
let test_libm_edge_grid () =
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          if not (Prop.Libm_ref.agrees x y) then
            Alcotest.failf "libm disagrees with the reference at x = %h, y = %h"
              x y)
        Prop.Libm_ref.edges)
    Prop.Libm_ref.edges

let () =
  Alcotest.run "prop"
    [
      ( "engine",
        [
          Alcotest.test_case "deterministic runs" `Quick
            test_run_deterministic;
          Alcotest.test_case "failure replays from printed seed" `Quick
            test_failure_replays_from_seed;
          Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
          Alcotest.test_case "Shrink.int converges" `Quick
            test_shrink_int_converges;
          Alcotest.test_case "Shrink.list removes chunks" `Quick
            test_shrink_list_removes_chunks;
          Alcotest.test_case "Gen.list bounds" `Quick test_gen_list_bounds;
          Alcotest.test_case "LLM4FP_PROP_ITERS knob" `Quick
            test_iteration_env_knob;
        ] );
      ( "arb",
        [
          Alcotest.test_case "shrink_program valid and smaller" `Quick
            test_shrink_program_valid_and_smaller;
          Alcotest.test_case "shrink_inputs preserve arity" `Quick
            test_shrink_inputs_preserve_arity;
        ] );
      ( "suites",
        [
          Alcotest.test_case "all suites listed" `Quick test_all_suites_listed;
          suite_case "gen-valid";
          suite_case "interp-total";
          suite_case "fold-preserves";
          suite_case "pp-parse-fixpoint";
          suite_case "front-end-ir";
          suite_case "case-codec-roundtrip";
          suite_case "digits-total";
          suite_case "chance-one-draw";
          suite_case "eft-two-sum";
          suite_case "eft-two-prod";
          suite_case "bleu-range";
          suite_case "bleu-self";
          suite_case "codebleu-ref";
          suite_case "libm-ref";
          Alcotest.test_case "libm-ref edge grid" `Quick test_libm_edge_grid;
          suite_case "vm-equiv";
          suite_case "fleet-merge";
        ] );
    ]
