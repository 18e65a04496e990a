type t = Varity | Direct_prompt | Grammar_guided | Llm4fp | Bandit

(* The paper's four approaches, in table order. [Bandit] is this
   reproduction's ensemble mode and deliberately not a member: paper
   tables and suites iterate [all]. *)
let all = [| Varity; Direct_prompt; Grammar_guided; Llm4fp |]

let name = function
  | Varity -> "VARITY"
  | Direct_prompt -> "DIRECT-PROMPT"
  | Grammar_guided -> "GRAMMAR-GUIDED"
  | Llm4fp -> "LLM4FP"
  | Bandit -> "BANDIT"

let of_name s =
  let s = String.uppercase_ascii s in
  if s = "BANDIT" then Some Bandit
  else Array.find_opt (fun a -> name a = s) all
