(* Structural program growth: the validity-filtered shrink moves of the
   reducer run in reverse. Where [Prop.Arb.shrink_program] removes
   statements, splices loop bodies, hoists operands over their parents
   and simplifies literals, each grower here performs the inverse move —
   wrap a statement in fresh control flow, duplicate work into a named
   temporary, push an expression under a new arithmetic node, split a
   literal into an equivalent-looking compound. Growers never need to
   preserve semantics (they generate new test programs, not witnesses),
   but every candidate is filtered through {!Analysis.Validate.check}
   exactly like the shrink direction, so grown programs are always
   admissible without another trip through the front end. *)

open Lang

(* ------------------------------------------------------------------ *)
(* Individual growth moves. Each returns [None] when it finds no
   applicable site; RNG draws happen only after applicability is
   established, so inapplicable movers are draw-free. The one exception
   is [wrap_in_loop]'s trip-count cap, which depends on its draws. *)

(* The largest product of loop bounds along any nesting path through
   [s]: how often its innermost statement runs per execution of [s]. *)
let rec trip_product (s : Ast.stmt) =
  match s with
  | Ast.Decl _ | Ast.Assign _ -> 1
  | Ast.If { body; _ } -> body_trip_product body
  | Ast.For { bound; body; _ } -> bound * body_trip_product body

and body_trip_product body =
  List.fold_left (fun acc s -> max acc (trip_product s)) 1 body

(* Inverse of loop-body splicing: wrap the k-th top-level statement in a
   small fresh [For]. The validator caps each loop's bound but not the
   product of a nest's bounds, so the move gives up (after its draws)
   when the wrapped nest would run more than
   {!Analysis.Validate.max_loop_bound} times in total. *)
let wrap_in_loop rng (p : Ast.program) =
  match p.body with
  | [] -> None
  | body ->
    let k = Util.Rng.int rng (List.length body) in
    let var = Ast.fresh_name p "g" in
    let bound = Util.Rng.int_in rng 2 4 in
    if
      bound * trip_product (List.nth body k)
      > Analysis.Validate.max_loop_bound
    then None
    else
      let body =
        List.mapi
          (fun i s -> if i = k then Ast.For { var; bound; body = [ s ] } else s)
          body
      in
      Some { p with body }

(* Inverse of branch-body splicing: guard the k-th top-level statement
   with a comparison against a scalar parameter. *)
let wrap_in_if rng (p : Ast.program) =
  let scalars =
    List.filter_map (function Ast.P_fp n -> Some n | _ -> None) p.params
  in
  match (p.body, scalars) with
  | [], _ | _, [] -> None
  | body, scalars ->
    let k = Util.Rng.int rng (List.length body) in
    let guard = Util.Rng.choose_list rng scalars in
    let cmp = Util.Rng.choose rng [| Ast.Lt; Ast.Ge |] in
    let rhs = Ast.Lit (Util.Rng.float_in rng (-4.0) 4.0) in
    let body =
      List.mapi
        (fun i s ->
          if i = k then Ast.If { lhs = Ast.Var guard; cmp; rhs; body = [ s ] }
          else s)
        body
    in
    Some { p with body }

(* Inverse of statement removal: duplicate an existing right-hand side
   into a fresh named temporary declared before its source statement,
   growing the dataflow without changing the observable result. *)
let duplicate_work rng (p : Ast.program) =
  let candidates =
    List.filteri
      (fun _ s -> match s with Ast.Decl _ | Ast.Assign _ -> true | _ -> false)
      p.body
    |> List.length
  in
  if candidates = 0 then None
  else begin
    let target = Util.Rng.int rng candidates in
    let fresh = Ast.fresh_name p "dup" in
    let seen = ref (-1) in
    let body =
      List.concat_map
        (fun s ->
          match s with
          | Ast.Decl { init = e; _ } | Ast.Assign { rhs = e; _ } ->
            incr seen;
            if !seen = target then [ Ast.Decl { name = fresh; init = e }; s ]
            else [ s ]
          | Ast.If _ | Ast.For _ -> [ s ])
        p.body
    in
    Some { p with body }
  end

(* Inverse of operand hoisting: push the k-th non-trivial expression
   under a new arithmetic parent node. The new operand is chosen to be
   numerically gentle (additive zero-ish or multiplicative one-ish) so
   grown programs stay mostly finite, but nothing depends on that. *)
let deepen_expr rng (p : Ast.program) =
  let eligible = function
    | Ast.Bin _ | Ast.Call _ | Ast.Var _ -> true
    | _ -> false
  in
  let count = ref 0 in
  List.iter
    (fun s ->
      match s with
      | Ast.Decl { init = e; _ } | Ast.Assign { rhs = e; _ } ->
        count :=
          Ast.fold_expr
            (fun acc sub -> if eligible sub then acc + 1 else acc)
            !count e
      | Ast.If _ | Ast.For _ -> ())
    p.body;
  if !count = 0 then None
  else begin
    let target = ref (Util.Rng.int rng !count) in
    let wrapped = ref false in
    let wrap e =
      match Util.Rng.int rng 3 with
      | 0 -> Ast.Bin (Ast.Add, e, Ast.Lit (Util.Rng.float_in rng 1e-8 1e-6))
      | 1 -> Ast.Bin (Ast.Mul, e, Ast.Lit (1.0 +. Util.Rng.float_in rng 1e-9 1e-7))
      | _ -> Ast.Neg (Ast.Neg e)
    in
    let rec visit e =
      if !wrapped then e
      else begin
        let here = eligible e in
        if here && !target = 0 then begin
          wrapped := true;
          target := -1;
          wrap e
        end
        else begin
          if here then decr target;
          match e with
          | Ast.Lit _ | Ast.Int_lit _ | Ast.Var _ | Ast.Index _ -> e
          | Ast.Neg inner -> Ast.Neg (visit inner)
          | Ast.Bin (op, a, b) ->
            let a = visit a in
            let b = visit b in
            Ast.Bin (op, a, b)
          | Ast.Call (fn, args) -> Ast.Call (fn, List.map visit args)
        end
      end
    in
    let body =
      List.map
        (fun s ->
          match s with
          | Ast.Decl { name; init } -> Ast.Decl { name; init = visit init }
          | Ast.Assign { lhs; op; rhs } ->
            Ast.Assign { lhs; op; rhs = visit rhs }
          | Ast.If _ | Ast.For _ -> s)
        p.body
    in
    if !wrapped then Some { p with body } else None
  end

(* Inverse of literal simplification: split the k-th literal into a
   compound with the same value, re-growing the constant structure the
   shrinker collapses. *)
let complicate_literal rng (p : Ast.program) =
  let count = ref 0 in
  List.iter
    (fun s ->
      match s with
      | Ast.Decl { init = e; _ } | Ast.Assign { rhs = e; _ } ->
        count :=
          Ast.fold_expr
            (fun acc sub -> match sub with Ast.Lit _ -> acc + 1 | _ -> acc)
            !count e
      | Ast.If _ | Ast.For _ -> ())
    p.body;
  if !count = 0 then None
  else begin
    let target = ref (Util.Rng.int rng !count) in
    let split = Util.Rng.float_in rng 0.25 0.75 in
    let done_ = ref false in
    let visit e =
      match e with
      | Ast.Lit v when not !done_ ->
        if !target = 0 then begin
          done_ := true;
          target := -1;
          let a = v *. split in
          Ast.Bin (Ast.Add, Ast.Lit a, Ast.Lit (v -. a))
        end
        else begin
          decr target;
          e
        end
      | e -> e
    in
    let body = Ast.map_exprs visit p.body in
    if !done_ then Some { p with body } else None
  end

let movers =
  [| wrap_in_loop; wrap_in_if; duplicate_work; deepen_expr;
     complicate_literal |]

(* ------------------------------------------------------------------ *)

let grow_once rng p =
  (* Start from a random mover and fall through the rest in ring order:
     a seed with no literal (say) still grows via another move. Every
     accepted candidate passes the same validator the shrink direction
     filters through. *)
  let n = Array.length movers in
  let start = Util.Rng.int rng n in
  let rec try_from i remaining =
    if remaining = 0 then None
    else
      match movers.((start + i) mod n) rng p with
      | Some p' when Result.is_ok (Analysis.Validate.check p') -> Some p'
      | _ -> try_from (i + 1) (remaining - 1)
  in
  try_from 0 n

let grow rng p =
  let steps = Util.Rng.int_in rng 1 3 in
  let rec go p i = function
    | 0 -> p
    | remaining -> begin
      match grow_once rng p with
      | None -> p
      | Some p' -> go p' (i + 1) (remaining - 1)
    end
  in
  go p 0 steps
