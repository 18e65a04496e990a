type summary = {
  tokens : Bleu.table;  (* plain and keyword-weighted columns *)
  ast : Ast_match.summary;
  edges : (string * string) Multiset.t;  (* (def, use), alpha-normalized *)
}

let keyword_weight tok = if Cparse.Lex.is_keyword tok then 4.0 else 1.0

let tokens_of (p : Lang.Ast.program) =
  Cparse.Lex.tokens (Lang.Pp.compute_to_string p)
  |> List.map Cparse.Lex.to_string

let compare_edges (d, u) (d', u') =
  let c = String.compare d d' in
  if c <> 0 then c else String.compare u u'

let summarize p =
  let edges =
    List.map
      (fun (e : Analysis.Dataflow.edge) -> (e.def, e.use))
      (Analysis.Dataflow.edges p)
  in
  {
    tokens = Bleu.table ~weight:keyword_weight (tokens_of p);
    ast = Ast_match.summarize p;
    edges =
      Multiset.build ~hash:Hashtbl.hash ~compare:compare_edges
        ~weights:[| (fun _ -> 1.0) |] (Array.of_list edges);
  }

(* Clipped matches of every component. min is symmetric, so one
   merge-join per component serves both directions of a pair. *)
type matched = { bleu : Bleu.matched; ast : float; df : float }

let matched a b =
  {
    bleu = Bleu.matched a.tokens b.tokens;
    ast = Ast_match.matched a.ast b.ast;
    df = (Multiset.matched ~compare:compare_edges a.edges b.edges).(0);
  }

let directed ~candidate ~reference m =
  let bleu ~weighted =
    Bleu.score ~weighted ~candidate:candidate.tokens
      ~reference:reference.tokens m.bleu
  in
  let ast = Ast_match.score ~candidate:candidate.ast m.ast in
  let df =
    let n_edges = Multiset.total candidate.edges 0 in
    if n_edges = 0.0 then 1.0 else m.df /. n_edges
  in
  0.25 *. (bleu ~weighted:false +. bleu ~weighted:true +. ast +. df)

let pair_score ~candidate ~reference =
  directed ~candidate ~reference (matched candidate reference)

let symmetric a b =
  let m = matched a b in
  0.5
  *. (directed ~candidate:a ~reference:b m
     +. directed ~candidate:b ~reference:a m)

let corpus_mean ?(max_pairs = 200_000) ~seed programs =
  if max_pairs < 1 then invalid_arg "Codebleu.corpus_mean: max_pairs < 1";
  let summaries = Array.of_list (List.map summarize programs) in
  let n = Array.length summaries in
  if n < 2 then 0.0
  else begin
    let total_pairs = n * (n - 1) / 2 in
    if total_pairs <= max_pairs then begin
      let sum = ref 0.0 in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          sum := !sum +. symmetric summaries.(i) summaries.(j)
        done
      done;
      !sum /. float_of_int total_pairs
    end
    else begin
      let rng = Util.Rng.of_int seed in
      let sum = ref 0.0 in
      for _ = 1 to max_pairs do
        let i = Util.Rng.int rng n in
        let j = ref (Util.Rng.int rng n) in
        while !j = i do j := Util.Rng.int rng n done;
        sum := !sum +. symmetric summaries.(i) summaries.(!j)
      done;
      !sum /. float_of_int max_pairs
    end
  end
