(** Reference CodeBLEU: the string-keyed implementation ([Map.Make
    (String)] over joined n-grams, a map of subtree renderings, a
    hashtable of def-use edge pairs) that {!Diversity.Codebleu} replaced
    with sorted-multiset merge-joins. Kept only as an oracle: the two
    must agree bit for bit on every pair. *)

type summary

val summarize : Lang.Ast.program -> summary

val pair_score : candidate:summary -> reference:summary -> float
(** CodeBLEU of one ordered pair, computed the string-keyed way. *)
