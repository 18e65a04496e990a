(** BLEU-style n-gram precision between token sequences.

    The n-gram components of CodeBLEU (Ren et al., 2020): modified n-gram
    precision with clipping, geometric mean over n = 1..4, and a brevity
    penalty. The weighted variant multiplies each n-gram's count by the
    maximum token weight it contains (keywords weigh more), following the
    reference implementation's keyword-weighted unigram idea extended to
    all orders.

    A table stores, per order, the sequence's distinct n-grams as slices
    of its own token array in a {!Multiset} with two count columns:
    plain (every n-gram counts 1) and weighted. No n-gram string is
    ever built. *)

type table
(** Clipped-count tables of one token sequence (orders 1..4, plain and
    weighted), reusable across many pairings. *)

val table : ?weight:(string -> float) -> string list -> table
(** [weight] (default: 1 for every token) sets the weighted column. *)

type matched
(** Clipped n-gram matches of two tables, per order and column. *)

val matched : table -> table -> matched
(** Symmetric: [matched a b] serves both directions of the pair. *)

val score :
  ?weighted:bool -> candidate:table -> reference:table -> matched -> float
(** [score ~candidate ~reference (matched candidate reference)]:
    geometric mean of modified precisions times brevity penalty, in
    [0, 1], from the plain column or, with [~weighted:true], the
    weighted one. Empty candidates score 0 against non-empty references
    and 1 against empty ones. Smoothing: zero precisions are floored at
    [1e-9] before the geometric mean (standard smoothing-epsilon). *)

val length : table -> int
(** Token count of the underlying sequence. *)
