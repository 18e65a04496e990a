type policy = No_contract | Syntactic | Cross_stmt

let rec contract_expr (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Const _ | Ir.Load _ | Ir.Load_arr _ | Ir.Itof _ -> e
  | Ir.Neg inner -> Ir.Neg (contract_expr inner)
  | Ir.Recip inner -> Ir.Recip (contract_expr inner)
  | Ir.Call (fn, args) -> Ir.Call (fn, List.map contract_expr args)
  | Ir.Fma (a, b, c) ->
    Ir.Fma (contract_expr a, contract_expr b, contract_expr c)
  | Ir.Bin (op, a, b) -> begin
    let a = contract_expr a and b = contract_expr b in
    match (op, a, b) with
    | Lang.Ast.Add, Ir.Bin (Lang.Ast.Mul, x, y), c -> Ir.Fma (x, y, c)
    | Lang.Ast.Add, c, Ir.Bin (Lang.Ast.Mul, x, y) -> Ir.Fma (x, y, c)
    | Lang.Ast.Sub, Ir.Bin (Lang.Ast.Mul, x, y), c -> Ir.Fma (x, y, Ir.Neg c)
    | Lang.Ast.Sub, c, Ir.Bin (Lang.Ast.Mul, x, y) ->
      Ir.Fma (Ir.Neg x, y, c)
    | _ -> Ir.Bin (op, a, b)
  end

let run policy (ir : Ir.t) =
  match policy with
  | No_contract -> ir
  | Syntactic -> { ir with body = Ir.map_body contract_expr ir.body }
  | Cross_stmt ->
    let ir = Forward.run ir in
    { ir with body = Ir.map_body contract_expr ir.body }
