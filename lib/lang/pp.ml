let fp_type_name = function Ast.F32 -> "float" | Ast.F64 -> "double"

let lit_to_string v =
  if not (Float.is_finite v) then
    invalid_arg "Pp.lit_to_string: non-finite literal";
  let s = Printf.sprintf "%.17g" v in
  let has_marker =
    String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
  in
  if has_marker then s else s ^ ".0"

let math_call_name precision fn =
  let base = Ast.math_fn_name fn in
  match precision with Ast.F64 -> base | Ast.F32 -> base ^ "f"

(* Precedence levels: additive 1, multiplicative 2, unary minus 3, atoms 4.
   Operands are parenthesized whenever a left-associative re-parse would
   rebuild a different tree, preserving FP evaluation order. *)
let rec level = function
  | Ast.Lit v -> if v < 0.0 || (v = 0.0 && Float.sign_bit v) then 3 else 4
  | Ast.Int_lit n -> if n < 0 then 3 else 4
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> 4
  | Ast.Neg _ -> 3
  | Ast.Bin ((Ast.Add | Ast.Sub), _, _) -> 1
  | Ast.Bin ((Ast.Mul | Ast.Div), _, _) -> 2

and expr_to_string precision e =
  let rec go min_level e =
    let s =
      match e with
      | Ast.Lit v -> lit_to_string v
      | Ast.Int_lit n -> string_of_int n
      | Ast.Var name -> name
      | Ast.Index (arr, idx) -> Printf.sprintf "%s[%s]" arr (go 0 idx)
      | Ast.Neg inner ->
        (* A numeral directly after '-' would re-parse as a negative
           literal; parenthesize it to keep Neg in the tree. *)
        let inner_s =
          match inner with
          | Ast.Lit _ | Ast.Int_lit _ -> "(" ^ go 0 inner ^ ")"
          | _ -> go 4 inner
        in
        "-" ^ inner_s
      | Ast.Bin (op, l, r) ->
        let lv = level e in
        Printf.sprintf "%s %s %s" (go lv l) (Ast.binop_symbol op) (go (lv + 1) r)
      | Ast.Call (fn, args) ->
        let rendered = List.map (go 0) args in
        Printf.sprintf "%s(%s)" (math_call_name precision fn)
          (String.concat ", " rendered)
    in
    if level e < min_level then "(" ^ s ^ ")" else s
  in
  go 0 e

let lvalue_to_string precision = function
  | Ast.Lv_var name -> name
  | Ast.Lv_index (arr, idx) ->
    Printf.sprintf "%s[%s]" arr (expr_to_string precision idx)

let rec stmt_to_lines precision depth stmt =
  let pad = String.make (2 * depth) ' ' in
  match stmt with
  | Ast.Decl { name; init } ->
    [ Printf.sprintf "%s%s %s = %s;" pad (fp_type_name precision) name
        (expr_to_string precision init) ]
  | Ast.Assign { lhs; op; rhs } ->
    [ Printf.sprintf "%s%s %s %s;" pad
        (lvalue_to_string precision lhs)
        (Ast.assign_op_symbol op)
        (expr_to_string precision rhs) ]
  | Ast.If { lhs; cmp; rhs; body } ->
    (Printf.sprintf "%sif (%s %s %s) {" pad
       (expr_to_string precision lhs)
       (Ast.cmpop_symbol cmp)
       (expr_to_string precision rhs))
    :: body_lines precision (depth + 1) body
    @ [ pad ^ "}" ]
  | Ast.For { var; bound; body } ->
    (Printf.sprintf "%sfor (int %s = 0; %s < %d; ++%s) {" pad var var bound var)
    :: body_lines precision (depth + 1) body
    @ [ pad ^ "}" ]

and body_lines precision depth body =
  List.concat_map (stmt_to_lines precision depth) body

let param_to_string precision = function
  | Ast.P_int name -> "int " ^ name
  | Ast.P_fp name -> fp_type_name precision ^ " " ^ name
  | Ast.P_fp_array (name, _) -> fp_type_name precision ^ "* " ^ name

let compute_signature ~cuda (p : Ast.program) =
  let params =
    p.params |> List.map (param_to_string p.precision) |> String.concat ", "
  in
  let qualifier = if cuda then "__global__ " else "" in
  Printf.sprintf "%svoid compute(%s)" qualifier params

let result_format = function Ast.F32 -> "%.9e" | Ast.F64 -> "%.17g"

let compute_to_string ?(cuda = false) (p : Ast.program) =
  let header = compute_signature ~cuda p ^ " {" in
  let decl_comp =
    Printf.sprintf "  %s %s = 0.0;" (fp_type_name p.precision) Ast.comp_name
  in
  let print_result =
    Printf.sprintf "  printf(\"%s\\n\", %s);" (result_format p.precision)
      Ast.comp_name
  in
  String.concat "\n"
    ((header :: decl_comp :: body_lines p.precision 1 p.body)
    @ [ print_result; "}" ])

let includes = [ "#include <stdio.h>"; "#include <stdlib.h>"; "#include <math.h>" ]

let main_reads (p : Ast.program) =
  let buf = Buffer.create 256 in
  let arg = ref 1 in
  let call_args = ref [] in
  List.iter
    (fun prm ->
      match prm with
      | Ast.P_int name ->
        Buffer.add_string buf
          (Printf.sprintf "  int %s = atoi(argv[%d]);\n" name !arg);
        incr arg;
        call_args := name :: !call_args
      | Ast.P_fp name ->
        Buffer.add_string buf
          (Printf.sprintf "  %s %s = atof(argv[%d]);\n"
             (fp_type_name p.precision) name !arg);
        incr arg;
        call_args := name :: !call_args
      | Ast.P_fp_array (name, len) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s %s[%d];\n" (fp_type_name p.precision) name len);
        Buffer.add_string buf
          (Printf.sprintf
             "  for (int i_%s = 0; i_%s < %d; ++i_%s) { %s[i_%s] = \
              atof(argv[%d + i_%s]); }\n"
             name name len name name name !arg name);
        arg := !arg + len;
        call_args := name :: !call_args)
    p.params;
  (Buffer.contents buf, List.rev !call_args)

let to_c (p : Ast.program) =
  let reads, call_args = main_reads p in
  String.concat "\n"
    (includes
    @ [ "";
        compute_to_string ~cuda:false p;
        "";
        "int main(int argc, char* argv[]) {";
        reads
        ^ Printf.sprintf "  compute(%s);" (String.concat ", " call_args);
        "  return 0;";
        "}";
        "" ])

let to_cuda (p : Ast.program) =
  let reads, call_args = main_reads p in
  let array_copies =
    p.params
    |> List.filter_map (function
         | Ast.P_fp_array (name, len) ->
           Some
             (Printf.sprintf
                "  %s* d_%s;\n\
                 \  cudaMallocManaged(&d_%s, %d * sizeof(%s));\n\
                 \  for (int i_%s = 0; i_%s < %d; ++i_%s) { d_%s[i_%s] = \
                 %s[i_%s]; }"
                (fp_type_name p.precision) name name len
                (fp_type_name p.precision) name name len name name name name
                name)
         | Ast.P_int _ | Ast.P_fp _ -> None)
    |> String.concat "\n"
  in
  let kernel_args =
    List.map
      (fun prm ->
        match prm with
        | Ast.P_fp_array (name, _) -> "d_" ^ name
        | Ast.P_int name | Ast.P_fp name -> name)
      p.params
  in
  ignore call_args;
  String.concat "\n"
    (includes
    @ [ "";
        compute_to_string ~cuda:true p;
        "";
        "int main(int argc, char* argv[]) {";
        reads ^ array_copies;
        Printf.sprintf "  compute<<<1, 1>>>(%s);" (String.concat ", " kernel_args);
        "  cudaDeviceSynchronize();";
        "  return 0;";
        "}";
        "" ])
