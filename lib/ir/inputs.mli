(** Input vectors for test programs.

    Each generated program is paired with one set of input values (paper
    §3.1.3). A vector matches the program's parameter list positionally. *)

type value =
  | Fp of float
  | Int of int
  | Arr of float array

type t = value list

val matches : Lang.Ast.program -> t -> bool
(** Positional agreement with the parameter list (kinds and array
    lengths). *)

val to_argv : t -> string list
(** Command-line rendering under the [argv] convention of
    {!Lang.Pp.to_c}'s [main]: parameters left to right, scalars as
    [%.17g] / decimal, arrays as consecutive entries. *)

val pp : Format.formatter -> t -> unit
