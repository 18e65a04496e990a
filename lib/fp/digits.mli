(** Decimal digit-difference metric (paper §3.4, Table 5).

    The paper considers "the 16 first floating-point digits" of the printed
    results and reports the minimum / maximum / average number of differing
    digits among inconsistent outputs. We render both values in scientific
    notation with 16 significant decimal digits and count positions whose
    digits disagree; a sign or exponent mismatch (or any non-finite operand)
    counts as all 16 digits differing. *)

type error =
  | Non_finite of float  (** only finite values decompose *)
  | Malformed of string
      (** the [%.15e] rendering did not have the expected
          [d.ddddddddddddddde±XX] shape (carries the rendering) *)

val error_to_string : error -> string

val decompose_result : float -> (bool * string * int, error) result
(** Total decomposition: never raises. [Ok (negative, digits, exponent)]
    for well-formed finite input; the digit string is always exactly 16
    decimal digits. *)

val decompose : float -> bool * string * int
(** [decompose x = (negative, digits, exponent)] for finite [x], matching
    [%.15e] formatting. Zero decomposes to [(sign, "000...0", 0)].
    Raises [Invalid_argument (error_to_string e)] where
    [decompose_result] would return [Error e]. *)

val diff_count : float -> float -> int
(** Number of differing digits among the 16, in [\[0, 16\]]. Bitwise-equal
    values give 0. *)

(** Running min/max/mean accumulator for digit differences. *)
module Acc : sig
  type t

  val empty : t
  val add : t -> int -> t
  val count : t -> int
  val min : t -> int
  (** Raises [Invalid_argument] when empty. *)

  val max : t -> int
  val mean : t -> float
  val to_string : t -> string
  (** ["(min/max/avg)"] in the paper's format, or ["-"] when empty. *)

  val raw : t -> int * int * int * int
  (** [(count, min, max, sum)] — the full accumulator state, for
      durable snapshots. *)

  val of_raw : int * int * int * int -> t
  (** Rebuild from a {!raw} snapshot. *)
end
