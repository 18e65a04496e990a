(** Delta-debugging reduction of archived inconsistency cases.

    An archived {!Difftest.Case.t} is a full generated kernel, most of
    which is usually irrelevant to the divergence it witnesses. This
    module minimizes the case while re-checking the inconsistency oracle
    after every candidate shrink: a candidate survives only if the
    case's own configuration pair still produces bitwise-different
    results on it. Shrinking reuses the property-testing shrinkers of
    {!Prop.Arb} — statement removal at any depth (dead statements, the
    ones {!Irsim.Dce} would sweep, fall out first since dropping them
    cannot perturb either side), loop/branch body splicing, expression
    hoisting and literal simplification, and input-vector shrinking —
    each candidate filtered through {!Analysis.Validate.check}.

    The reduced case is rebuilt with freshly computed hex sides, classes
    and digit distance, and is re-replayed from its own printed source
    before being returned: {!run} guarantees the reduced record
    reproduces its archived divergence bit-for-bit, between the same
    configuration pair as the original.

    Progress flows through {!Obs}: a [reduce.case] span per reduction,
    [reduce.cases] / [reduce.oracle_calls] / [reduce.accepted_shrinks]
    counters, and a [reduce.shrink_ratio] histogram (reduced size over
    original size, so lower is better). *)

type outcome = {
  original : Difftest.Case.t;
  reduced : Difftest.Case.t;  (** same kind, configs, level, provenance *)
  original_size : int;  (** {!Lang.Ast.program_size} of the archived program *)
  reduced_size : int;
  shrink_steps : int;  (** accepted candidate shrinks *)
  oracle_calls : int;  (** candidate evaluations (compile + both runs) *)
}

val shrink_ratio : outcome -> float
(** [reduced_size /. original_size], in (0, 1]. *)

val run :
  ?max_oracle_calls:int -> Difftest.Case.t -> (outcome, string) result
(** Reduce a case. Default oracle budget: 4000 candidate evaluations.
    [Error] when the archived source fails to parse or compile, when the
    archive does not reproduce its recorded hex pair in the first place,
    or when the final bit-exact replay of the reduced case fails (a
    reducer bug, surfaced rather than archived). *)

val render : outcome -> string
(** Human-readable report: size before/after, ratio, oracle cost, and
    the minimized program with its inputs. *)

val grow_pool : dir:string -> (Lang.Ast.program list, string) result
(** Load a [--record] archive directory as a seed pool for the bandit's
    grow arm ([campaign bandit --grow-from DIR]): every archived case's
    program, re-parsed from its stored source, deduplicated on the
    normalized rendering, in fingerprint order — deterministic in the
    archive contents alone. [Error] on an unreadable directory or an
    undecodable case file. *)
