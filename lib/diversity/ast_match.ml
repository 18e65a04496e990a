open Lang

module Smap = Map.Make (String)

type summary = { trees : float Smap.t; total : int }

(* Canonical rendering of each subtree, identifiers and literals
   abstracted. Returns the rendering of [e] and appends every subtree's
   rendering to [acc]. *)
let rec expr_subtrees acc e =
  let render, acc =
    match e with
    | Ast.Lit _ -> ("lit", acc)
    | Ast.Int_lit _ -> ("ilit", acc)
    | Ast.Var _ -> ("id", acc)
    | Ast.Index (_, idx) ->
      let r, acc = expr_subtrees acc idx in
      (Printf.sprintf "idx(id,%s)" r, acc)
    | Ast.Neg inner ->
      let r, acc = expr_subtrees acc inner in
      (Printf.sprintf "neg(%s)" r, acc)
    | Ast.Bin (op, a, b) ->
      let ra, acc = expr_subtrees acc a in
      let rb, acc = expr_subtrees acc b in
      (Printf.sprintf "(%s%s%s)" ra (Ast.binop_symbol op) rb, acc)
    | Ast.Call (fn, args) ->
      let rs, acc =
        List.fold_left
          (fun (rs, acc) arg ->
            let r, acc = expr_subtrees acc arg in
            (r :: rs, acc))
          ([], acc) args
      in
      (Printf.sprintf "%s(%s)" (Ast.math_fn_name fn)
         (String.concat "," (List.rev rs)),
       acc)
  in
  (render, render :: acc)

let rec stmt_subtrees acc s =
  let render, acc =
    match s with
    | Ast.Decl { init; _ } ->
      let r, acc = expr_subtrees acc init in
      (Printf.sprintf "decl(%s)" r, acc)
    | Ast.Assign { lhs; op; rhs } ->
      let lhs_r, acc =
        match lhs with
        | Ast.Lv_var _ -> ("id", acc)
        | Ast.Lv_index (_, idx) ->
          let r, acc = expr_subtrees acc idx in
          (Printf.sprintf "idx(id,%s)" r, acc)
      in
      let r, acc = expr_subtrees acc rhs in
      (Printf.sprintf "assign(%s,%s,%s)" lhs_r (Ast.assign_op_symbol op) r, acc)
    | Ast.If { lhs; cmp; rhs; body } ->
      let rl, acc = expr_subtrees acc lhs in
      let rr, acc = expr_subtrees acc rhs in
      let rb, acc = body_subtrees acc body in
      (Printf.sprintf "if(%s%s%s){%s}" rl (Ast.cmpop_symbol cmp) rr rb, acc)
    | Ast.For { bound; body; _ } ->
      let rb, acc = body_subtrees acc body in
      (Printf.sprintf "for(%d){%s}" bound rb, acc)
  in
  (render, render :: acc)

and body_subtrees acc body =
  let rs, acc =
    List.fold_left
      (fun (rs, acc) s ->
        let r, acc = stmt_subtrees acc s in
        (r :: rs, acc))
      ([], acc) body
  in
  (String.concat ";" (List.rev rs), acc)

let summarize (p : Ast.program) =
  let _, subtrees = body_subtrees [] p.body in
  let trees =
    List.fold_left
      (fun map t ->
        Smap.update t (function None -> Some 1.0 | Some c -> Some (c +. 1.0)) map)
      Smap.empty subtrees
  in
  { trees; total = List.length subtrees }

let score ~candidate ~reference =
  if candidate.total = 0 then 1.0
  else
    let matched =
      Smap.fold
        (fun tree c acc ->
          match Smap.find_opt tree reference.trees with
          | None -> acc
          | Some r -> acc +. Float.min c r)
        candidate.trees 0.0
    in
    matched /. float_of_int candidate.total
