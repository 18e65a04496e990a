(** CodeBLEU (Ren et al., 2020), as used by the paper's diversity
    evaluation (§3.2.2, Table 3).

    CodeBLEU(cand, ref) = α·BLEU + β·BLEU_weighted + γ·Match_ast +
    δ·Match_df with α = β = γ = δ = 0.25. Tokens come from the mini-C
    lexer; keywords (C keywords and math-library names) weigh 4× in the
    weighted component; the AST component matches abstracted subtrees;
    the dataflow component matches alpha-normalized def-use edges.

    A {e lower} average pairwise score means a more diverse program set. *)

type summary
(** Everything precomputed about one program (token n-gram tables,
    subtree multiset, dataflow edges), each a {!Multiset} sorted by
    (hash, key), so scoring a pair is one merge-join per component. A
    summary holds its own keys: summaries built on different domains
    pair directly. *)

val summarize : Lang.Ast.program -> summary

val pair_score : candidate:summary -> reference:summary -> float
(** CodeBLEU of one ordered pair, in [0, 1]. *)

val symmetric : summary -> summary -> float
(** Mean of both directions; the clipped match counts are symmetric, so
    each component's merge-join runs once for the pair. *)

val corpus_mean :
  ?max_pairs:int -> seed:int -> Lang.Ast.program list -> float
(** Average symmetric pairwise score over all unordered pairs. When the
    pair count exceeds [max_pairs] (default 200_000), the mean is over
    [max_pairs] sampled pairs instead: ordered draws [(i, j)] with
    [i <> j], uniform and with replacement, from a stream seeded by
    [seed]. Returns 0 for fewer than two programs. Raises
    [Invalid_argument] when [max_pairs < 1]. *)

val keyword_weight : string -> float
(** 4.0 for keywords, 1.0 otherwise (exposed for tests). *)
