(** Syntactic subtree matching (CodeBLEU's AST component).

    Every program is summarized as the multiset of its AST subtrees,
    rendered canonically with identifiers abstracted to [id] and numeric
    literals to [lit] (the reference implementation also compares
    subtrees name-insensitively). The match score of a candidate against
    a reference is the clipped fraction of candidate subtrees found in
    the reference. *)

type summary
(** Precomputed subtree multiset. *)

val summarize : Lang.Ast.program -> summary

val matched : summary -> summary -> float
(** Clipped count of subtrees the two summaries share. Symmetric. *)

val score : candidate:summary -> float -> float
(** [score ~candidate (matched candidate reference)]: the share of the
    candidate's subtrees found in the reference, in [0, 1]; 1.0 when
    the candidate has no subtrees. *)
