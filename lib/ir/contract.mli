(** Fused multiply-add contraction.

    The central FMA policy differences among the simulated compilers
    (paper §3.1.2, Table 1):

    - nvcc contracts by default at every level ([-fmad=true]); only
      [00_nofma]'s [-fmad=false] disables it.
    - gcc and clang contract once they optimize; gcc additionally
      contracts {e across statement boundaries} (its middle-end forwards
      single-use multiply temporaries before codegen — see {!Forward}),
      while clang only fuses a syntactic multiply-add inside one
      expression.

    [Syntactic] rewrites, bottom-up: [a*b + c], [c + a*b], [a*b - c], and
    [c - a*b] into single-rounding {!Ir.expr.Fma} nodes. When both
    operands of an addition are multiplications the left one fuses (what
    gcc/clang/nvcc codegen does for a simple tree walk). *)

type policy = No_contract | Syntactic | Cross_stmt

val contract_expr : Ir.expr -> Ir.expr
(** The syntactic rewrite on one expression tree. *)

val run : policy -> Ir.t -> Ir.t
(** [Cross_stmt] is {!Forward.run} followed by the syntactic rewrite. *)
