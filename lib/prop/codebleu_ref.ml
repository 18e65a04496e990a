(* The string-keyed CodeBLEU scorer, kept verbatim as the reference the
   sorted-multiset scorer in lib/diversity is checked against (the
   [codebleu-ref] property suite and the bench's tables study). Nothing
   in the pipeline calls it. *)

module Bleu = struct
  let max_order = 4

  module Smap = Map.Make (String)

  type ngram_table = {
    len : int;
    (* per order (index 0 = unigrams): ngram -> weighted count *)
    counts : float Smap.t array;
    totals : float array;
  }

  let ngrams_of tokens n =
    let arr = Array.of_list tokens in
    let len = Array.length arr in
    let out = ref [] in
    for i = 0 to len - n do
      let gram = String.concat "\x00" (Array.to_list (Array.sub arr i n)) in
      out := (i, gram) :: !out
    done;
    List.rev !out

  let table_weighted ~weight tokens =
    let arr = Array.of_list tokens in
    let counts =
      Array.init max_order (fun k ->
          let n = k + 1 in
          List.fold_left
            (fun map (i, gram) ->
              let w =
                (* weight of an n-gram = max weight of its tokens *)
                let rec max_w j acc =
                  if j >= i + n then acc
                  else max_w (j + 1) (Float.max acc (weight arr.(j)))
                in
                max_w i 1.0
              in
              Smap.update gram
                (function None -> Some w | Some c -> Some (c +. w))
                map)
            Smap.empty (ngrams_of tokens n))
    in
    let totals =
      Array.map (fun map -> Smap.fold (fun _ c acc -> acc +. c) map 0.0) counts
    in
    { len = Array.length arr; counts; totals }

  let table tokens = table_weighted ~weight:(fun _ -> 1.0) tokens

  let score ~candidate ~reference =
    if candidate.len = 0 then if reference.len = 0 then 1.0 else 0.0
    else begin
      let log_sum = ref 0.0 in
      for k = 0 to max_order - 1 do
        let matched =
          Smap.fold
            (fun gram c acc ->
              match Smap.find_opt gram reference.counts.(k) with
              | None -> acc
              | Some r -> acc +. Float.min c r)
            candidate.counts.(k) 0.0
        in
        let total = candidate.totals.(k) in
        let precision =
          if total <= 0.0 then 1.0 (* candidate shorter than the order *)
          else Float.max (matched /. total) 1e-9
        in
        log_sum := !log_sum +. log precision
      done;
      let geo = exp (!log_sum /. float_of_int max_order) in
      let bp =
        if candidate.len >= reference.len then 1.0
        else exp (1.0 -. (float_of_int reference.len /. float_of_int candidate.len))
      in
      geo *. bp
    end
end

module Ast_match = struct
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
end

type summary = {
  plain : Bleu.ngram_table;
  weighted : Bleu.ngram_table;
  ast : Ast_match.summary;
  edges : (string * string, int) Hashtbl.t;
  n_edges : int;
}

let keyword_weight tok = if Cparse.Lex.is_keyword tok then 4.0 else 1.0

let tokens_of (p : Lang.Ast.program) =
  Cparse.Lex.tokens (Lang.Pp.compute_to_string p)
  |> List.map Cparse.Lex.to_string

let summarize p =
  let tokens = tokens_of p in
  let edges = Hashtbl.create 32 in
  let edge_list = Analysis.Dataflow.edges p in
  List.iter
    (fun (e : Analysis.Dataflow.edge) ->
      let key = (e.def, e.use) in
      Hashtbl.replace edges key
        (1 + Option.value (Hashtbl.find_opt edges key) ~default:0))
    edge_list;
  {
    plain = Bleu.table tokens;
    weighted = Bleu.table_weighted ~weight:keyword_weight tokens;
    ast = Ast_match.summarize p;
    edges;
    n_edges = List.length edge_list;
  }

let dataflow_score ~candidate ~reference =
  if candidate.n_edges = 0 then 1.0
  else begin
    let matched = ref 0 in
    Hashtbl.iter
      (fun key c ->
        match Hashtbl.find_opt reference.edges key with
        | None -> ()
        | Some r -> matched := !matched + min c r)
      candidate.edges;
    float_of_int !matched /. float_of_int candidate.n_edges
  end

let pair_score ~candidate ~reference =
  let bleu = Bleu.score ~candidate:candidate.plain ~reference:reference.plain in
  let wbleu =
    Bleu.score ~candidate:candidate.weighted ~reference:reference.weighted
  in
  let ast = Ast_match.score ~candidate:candidate.ast ~reference:reference.ast in
  let df = dataflow_score ~candidate ~reference in
  0.25 *. (bleu +. wbleu +. ast +. df)
