(** Weighted multisets as parallel arrays sorted by [(hash, key)].

    Every CodeBLEU component asks how much of one program's multiset
    (n-grams, AST subtrees, def-use edges) reappears in another's,
    clipped per key: the sum over shared keys of the smaller count. With
    both sides sorted in one total order that sum is a single linear
    merge-join. The order compares an [int] hash first and the keys
    themselves only on a hash tie, so the result is exact whatever the
    hash collides on.

    A multiset may carry several count columns over the same keys (the
    plain and keyword-weighted BLEU tables share their n-grams). Each
    value holds its own keys, with no shared interning table, so
    multisets built independently (on different domains) can be matched
    directly. *)

type 'k t

val build :
  hash:('k -> int) -> compare:('k -> 'k -> int) ->
  weights:('k -> float) array -> 'k array -> 'k t
(** [build ~hash ~compare ~weights keys] is the multiset of the
    occurrences [keys], with one count column per weight function:
    occurrence [k] adds [weights.(c) k] to column [c]. Occurrences equal
    under [compare] merge. [hash] must agree with [compare] (equal keys,
    equal hashes). Raises [Invalid_argument] beyond 2{^20} - 1
    occurrences. *)

val total : 'k t -> int -> float
(** Sum of column [c] over every key. *)

val matched : compare:('k -> 'k -> int) -> 'k t -> 'k t -> float array
(** Per column, the sum over keys present in both multisets of the
    smaller of the two counts. Symmetric in its two multisets. Both must
    have been built with the same [hash] and [compare]. *)
