(* Tests for lib/diversity: BLEU, AST match, CodeBLEU, clone detection. *)

open Helpers

let p1 = parse {|
void compute(double x, double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * x;
  }
}
|}

(* p1 with consistently renamed identifiers *)
let p1_renamed = Lang.Ast.rename (fun n -> n ^ "_r") p1

(* p1 with one literal changed *)
let p1_lit = parse {|
void compute(double x, double* a) {
  double comp = 0.0;
  for (int i = 0; i < 8; ++i) {
    comp += a[i] * x;
  }
  comp *= 2.0;
}
|}

let p2 = parse {|
void compute(double u, double v) {
  double comp = 0.0;
  comp = sin(u) / (1.0 + cos(v));
}
|}

let arbitrary_program =
  QCheck.make
    ~print:(fun p -> Lang.Pp.to_c p)
    (QCheck.Gen.map
       (fun seed -> Gen.Varity.generate (Util.Rng.of_int seed))
       QCheck.Gen.int)

(* ------------------------------------------------------------------ *)
(* Multiset *)

(* Column 0 counts occurrences, column 1 weighs each by its length. *)
let multiset ~hash keys =
  Diversity.Multiset.build ~hash ~compare:String.compare
    ~weights:[| (fun _ -> 1.0); (fun k -> float_of_int (String.length k)) |]
    (Array.of_list keys)

let test_multiset_hash_collisions () =
  (* Random programs almost never collide on a hash, so force it: with a
     constant or coarse hash only the key comparison separates keys. *)
  List.iter
    (fun (name, hash) ->
      let a = multiset ~hash [ "x"; "y"; "x"; "zz"; "x" ] in
      let b = multiset ~hash [ "x"; "zz"; "zz"; "w" ] in
      let m = Diversity.Multiset.matched ~compare:String.compare a b in
      (* shared: x min(3, 1) and zz min(1, 2) *)
      check_float (name ^ ": plain") 2.0 m.(0);
      check_float (name ^ ": weighted") 3.0 m.(1);
      check_bool (name ^ ": symmetric") true
        (Diversity.Multiset.matched ~compare:String.compare b a = m);
      check_float (name ^ ": total") 5.0 (Diversity.Multiset.total a 0);
      check_float (name ^ ": weighted total") 6.0
        (Diversity.Multiset.total a 1))
    [ ("constant", fun _ -> 0); ("length", String.length);
      ("hashtbl", Hashtbl.hash) ]

(* ------------------------------------------------------------------ *)
(* Bleu *)

let tokens p =
  Cparse.Lex.tokens (Lang.Pp.compute_to_string p)
  |> List.map Cparse.Lex.to_string

let bleu ~candidate ~reference =
  Diversity.Bleu.score ~candidate ~reference
    (Diversity.Bleu.matched candidate reference)

let test_bleu_identical () =
  let t = Diversity.Bleu.table (tokens p1) in
  check_float ~eps:1e-9 "self = 1" 1.0 (bleu ~candidate:t ~reference:t)

let test_bleu_disjoint_low () =
  let a = Diversity.Bleu.table [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let b = Diversity.Bleu.table [ "u"; "v"; "w"; "x"; "y"; "z" ] in
  check_bool "near zero" true (bleu ~candidate:a ~reference:b < 0.01)

let test_bleu_brevity_penalty () =
  (* a perfectly matching prefix still scores below 1 when the candidate
     is shorter than the reference *)
  let reference = Diversity.Bleu.table [ "a"; "b"; "c"; "d"; "e"; "f" ] in
  let prefix = Diversity.Bleu.table [ "a"; "b"; "c" ] in
  let s = bleu ~candidate:prefix ~reference in
  check_bool "penalized" true (s < 0.5);
  check_bool "not zero" true (s > 0.0)

let test_bleu_weighted_keywords () =
  (* matching a keyword counts more under the weighted table *)
  let w = Diversity.Codebleu.keyword_weight in
  check_float ~eps:1e-9 "keyword weight" 4.0 (w "double");
  check_float ~eps:1e-9 "plain weight" 1.0 (w "alpha")

let qcheck_bleu_bounds =
  QCheck.Test.make ~name:"BLEU score in [0,1]" ~count:100
    QCheck.(pair arbitrary_program arbitrary_program)
    (fun (a, b) ->
      let ta = Diversity.Bleu.table (tokens a) in
      let tb = Diversity.Bleu.table (tokens b) in
      let s = bleu ~candidate:ta ~reference:tb in
      s >= 0.0 && s <= 1.0)

(* ------------------------------------------------------------------ *)
(* Ast_match *)

let ast_match ~candidate ~reference =
  Diversity.Ast_match.score ~candidate
    (Diversity.Ast_match.matched candidate reference)

let test_ast_match_self () =
  let s = Diversity.Ast_match.summarize p1 in
  check_float ~eps:1e-9 "self" 1.0 (ast_match ~candidate:s ~reference:s)

let test_ast_match_rename_invariant () =
  let a = Diversity.Ast_match.summarize p1 in
  let b = Diversity.Ast_match.summarize p1_renamed in
  check_float ~eps:1e-9 "renaming invisible" 1.0 (ast_match ~candidate:a ~reference:b)

let test_ast_match_different_structures () =
  let a = Diversity.Ast_match.summarize p1 in
  let b = Diversity.Ast_match.summarize p2 in
  check_bool "below 0.5" true (ast_match ~candidate:a ~reference:b < 0.5)

(* ------------------------------------------------------------------ *)
(* Codebleu *)

let test_codebleu_self () =
  let s = Diversity.Codebleu.summarize p1 in
  check_float ~eps:1e-9 "self = 1" 1.0 (Diversity.Codebleu.pair_score ~candidate:s ~reference:s)

let test_codebleu_rename_high () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p1_renamed in
  (* token BLEU drops, but AST and dataflow components stay at 1 *)
  let s = Diversity.Codebleu.symmetric a b in
  check_bool "well above half" true (s > 0.5);
  check_bool "below identity" true (s < 1.0)

let test_codebleu_unrelated_low () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p2 in
  check_bool "low" true (Diversity.Codebleu.symmetric a b < 0.45)

let test_codebleu_symmetric () =
  let a = Diversity.Codebleu.summarize p1 in
  let b = Diversity.Codebleu.summarize p1_lit in
  check_float ~eps:1e-9 "mean of directions"
    (0.5 *. (Diversity.Codebleu.pair_score ~candidate:a ~reference:b
            +. Diversity.Codebleu.pair_score ~candidate:b ~reference:a))
    (Diversity.Codebleu.symmetric a b)

let test_corpus_mean_small () =
  let mean = Diversity.Codebleu.corpus_mean ~seed:1 [ p1; p1_renamed; p2 ] in
  check_bool "bounded" true (mean > 0.0 && mean < 1.0)

let test_corpus_mean_sampled_deterministic () =
  let programs =
    List.init 40 (fun i -> Gen.Varity.generate (Util.Rng.of_int i))
  in
  let a = Diversity.Codebleu.corpus_mean ~max_pairs:100 ~seed:7 programs in
  let b = Diversity.Codebleu.corpus_mean ~max_pairs:100 ~seed:7 programs in
  check_float ~eps:1e-9 "same sample same mean" a b

let test_corpus_mean_rejects_zero_pairs () =
  (* max_pairs 0 would otherwise take the sampling branch: 0 / 0 *)
  Alcotest.check_raises "max_pairs 0"
    (Invalid_argument "Codebleu.corpus_mean: max_pairs < 1") (fun () ->
      ignore (Diversity.Codebleu.corpus_mean ~max_pairs:0 ~seed:1 [ p1; p2 ]))

let qcheck_codebleu_bounds =
  QCheck.Test.make ~name:"CodeBLEU in [0,1]" ~count:60
    QCheck.(pair arbitrary_program arbitrary_program)
    (fun (a, b) ->
      let s =
        Diversity.Codebleu.symmetric (Diversity.Codebleu.summarize a)
          (Diversity.Codebleu.summarize b)
      in
      s >= 0.0 && s <= 1.0)

(* Table 3 golden: the rendered table plus each approach's corpus mean
   in hex, on the all-pairs path and on the sampled path, for one
   fixed-seed suite. Any change to the scorer's arithmetic shows up
   here bit for bit. *)

let golden_seed = 20250704

let table3_golden_text () =
  let suite = Harness.Experiments.run_suite ~budget:20 ~seed:golden_seed () in
  let means =
    Array.to_list Harness.Approach.all
    |> List.map (fun a ->
           let programs = (Harness.Experiments.outcome suite a).programs in
           let mean ?max_pairs () =
             Diversity.Codebleu.corpus_mean ?max_pairs ~seed:suite.seed programs
           in
           Printf.sprintf "%s all=%h sampled50=%h\n" (Harness.Approach.name a)
             (mean ()) (mean ~max_pairs:50 ()))
  in
  Harness.Experiments.table3 suite ^ String.concat "" means

let test_table3_golden () =
  check_golden "table 3" ~golden:"golden/table3.txt" (table3_golden_text ())

(* ------------------------------------------------------------------ *)
(* Clones *)

let test_clone_keys () =
  check_bool "type1: identical" true
    (Diversity.Clones.type1_key p1 = Diversity.Clones.type1_key p1);
  check_bool "type1: rename breaks" false
    (Diversity.Clones.type1_key p1 = Diversity.Clones.type1_key p1_renamed);
  check_bool "type2c: consistent rename matches" true
    (Diversity.Clones.type2c_key p1 = Diversity.Clones.type2c_key p1_renamed);
  check_bool "type2: literal change invisible" true
    (Diversity.Clones.type2_key p1
    = Diversity.Clones.type2_key
        (Lang.Ast.map_exprs
           (fun e -> match e with Lang.Ast.Lit _ -> Lang.Ast.Lit 9.75 | e -> e)
           p1.Lang.Ast.body
         |> fun body -> { p1 with Lang.Ast.body }))

let test_clone_hierarchy () =
  (* Type-1 implies Type-2c implies Type-2 *)
  check_bool "t2c for renamed" true
    (Diversity.Clones.type2_key p1 = Diversity.Clones.type2_key p1_renamed)

let test_analyze_buckets () =
  let r = Diversity.Clones.analyze [ p1; p1; p1_renamed; p2 ] in
  check_int "one type1 (second copy)" 1 r.Diversity.Clones.type1;
  check_int "one type2c (renamed)" 1 r.Diversity.Clones.type2c;
  check_int "no bare type2" 0 r.Diversity.Clones.type2;
  check_int "total" 4 r.Diversity.Clones.total_programs;
  Alcotest.(check (float 0.01)) "percentage" 50.0 (Diversity.Clones.percentage r)

let test_analyze_distinct () =
  let programs = List.init 20 (fun i -> Gen.Varity.generate (Util.Rng.of_int i)) in
  let r = Diversity.Clones.analyze programs in
  check_int "random programs are not clones" 0
    (r.Diversity.Clones.type1 + r.Diversity.Clones.type2 + r.Diversity.Clones.type2c)

let () =
  Alcotest.run "diversity"
    [
      ( "multiset",
        [ Alcotest.test_case "hash collisions" `Quick
            test_multiset_hash_collisions ] );
      ( "bleu",
        [
          Alcotest.test_case "identical" `Quick test_bleu_identical;
          Alcotest.test_case "disjoint" `Quick test_bleu_disjoint_low;
          Alcotest.test_case "brevity penalty" `Quick test_bleu_brevity_penalty;
          Alcotest.test_case "keyword weights" `Quick test_bleu_weighted_keywords;
          QCheck_alcotest.to_alcotest qcheck_bleu_bounds;
        ] );
      ( "ast_match",
        [
          Alcotest.test_case "self" `Quick test_ast_match_self;
          Alcotest.test_case "rename invariant" `Quick test_ast_match_rename_invariant;
          Alcotest.test_case "different structures" `Quick test_ast_match_different_structures;
        ] );
      ( "codebleu",
        [
          Alcotest.test_case "self" `Quick test_codebleu_self;
          Alcotest.test_case "rename high" `Quick test_codebleu_rename_high;
          Alcotest.test_case "unrelated low" `Quick test_codebleu_unrelated_low;
          Alcotest.test_case "symmetric" `Quick test_codebleu_symmetric;
          Alcotest.test_case "corpus mean" `Quick test_corpus_mean_small;
          Alcotest.test_case "sampled deterministic" `Quick test_corpus_mean_sampled_deterministic;
          Alcotest.test_case "max_pairs below 1 rejected" `Quick
            test_corpus_mean_rejects_zero_pairs;
          QCheck_alcotest.to_alcotest qcheck_codebleu_bounds;
          Alcotest.test_case "table 3 golden" `Slow test_table3_golden;
        ] );
      ( "clones",
        [
          Alcotest.test_case "keys" `Quick test_clone_keys;
          Alcotest.test_case "hierarchy" `Quick test_clone_hierarchy;
          Alcotest.test_case "bucket accounting" `Quick test_analyze_buckets;
          Alcotest.test_case "distinct programs" `Quick test_analyze_distinct;
        ] );
    ]
