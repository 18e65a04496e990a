(** Source emission for mini-C programs.

    Renders an AST to compilable C text (host path) or CUDA text (device
    path, the paper's "C to CUDA code translation": [compute] becomes a
    [__global__] kernel launched from [main] with a single block and a
    single thread, §2.4). The emitted text is what the diversity metrics
    (CodeBLEU, clone detection) and the mock LLM's prompts operate on.

    Expression printing preserves the AST shape: operands are parenthesized
    whenever re-parsing would otherwise rebuild a different tree, so
    [Parse.program (to_c p)] round-trips to [p] (see the parser tests).
    Shape preservation matters because floating-point evaluation order is
    semantically significant. *)

val fp_type_name : Ast.precision -> string
(** ["float"] or ["double"]. *)

val lit_to_string : float -> string
(** A decimal literal that parses back to the identical double (17
    significant digits, always containing ['.'], ['e'], or a non-finite
    spelling). *)

val math_call_name : Ast.precision -> Ast.math_fn -> string
(** C spelling, with the ['f'] suffix for single precision. *)

val expr_to_string : Ast.precision -> Ast.expr -> string

val stmt_to_lines : Ast.precision -> int -> Ast.stmt -> string list
(** Indented source lines for one statement. *)

val compute_signature : cuda:bool -> Ast.program -> string
(** The [compute] prototype line, e.g.
    ["void compute(double a, double* arr, int n)"], with [__global__]
    prepended for CUDA. *)

val compute_to_string : ?cuda:bool -> Ast.program -> string
(** The [compute] function definition only. *)

val to_c : Ast.program -> string
(** Full host translation unit: includes, [compute], and a [main] that
    reads inputs from [argv] (scalars with [atof]/[atoi]; arrays as
    [length] consecutive [argv] entries) and prints the result. *)

val to_cuda : Ast.program -> string
(** Full device translation unit with managed allocations and a
    single-thread kernel launch. *)
