(** The flattened execution engine.

    {!Interp} walks the IR tree on every call: each node re-dispatches on
    its constructor, re-decides precision and flush-to-zero behavior, and
    re-chases slot arrays through the environment record. That cost is
    paid once per node {e per execution}, while the campaign loop runs
    every binary once per configuration per generated program — the
    hottest real-time phase of a run.

    This module moves all of that work to a single flatten pass:
    [flatten rt ir] compiles the tree into a flat array of three-address
    instructions over a register file laid out as program slots, pooled
    constants (pre-rounded to the program's storage precision), and
    stack-disciplined expression temps — all indices absolute and
    pre-validated, with the runtime (libm flavor, FTZ, NaN-branch
    polarity, precision) pre-bound into the program value. Slot reads
    and constants are plain operand references, so they cost no
    instructions at all. Execution is then a tight loop over unboxed
    [float array] registers — no tree dispatch, no bounds checks except
    for data-dependent array subscripts (which raise the same
    {!Interp.Trap} as the reference engine).

    Results are bit-exact with {!Interp.run} — same values, same
    [fp_ops] — which the [vm-equiv] property suite and the tier-1
    program-level check [Helpers.check_vm_matches_reference] enforce. *)

type program
(** A flattened, runtime-bound program, ready to execute many times. *)

val flatten : Interp.runtime -> Ir.t -> program
(** Compile the IR under the given runtime. Validates every slot index
    and binding once and sizes the register file; raises
    [Invalid_argument] on malformed IR (a slot out of declared range, a
    binding whose declared array length disagrees with [arr_lens], a
    call whose argument count is not its function's arity). *)

val code_size : program -> int
(** Number of flat instructions (for tests and diagnostics). *)

val disasm : program -> string list
(** One printable line per flat instruction, in code order (for tests
    and diagnostics). *)

val run : program -> Inputs.t -> Interp.outcome
(** Execute one input vector on fresh storage: slots and temps start at
    zero, constant registers hold their pool values. Raises
    [Invalid_argument] on an input vector that does not match the
    program's bindings, {!Interp.Trap} on an out-of-bounds subscript. *)
