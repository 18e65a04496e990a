(** The four program-generation approaches the paper evaluates (§3.2.1),
    plus this reproduction's bandit ensemble over all of them. *)

type t =
  | Varity          (** random grammar generation, no LLM, no feedback *)
  | Direct_prompt   (** LLM, no grammar, no examples *)
  | Grammar_guided  (** LLM + Figure-2 grammar specification *)
  | Llm4fp          (** grammar + feedback-based mutation loop *)
  | Bandit
      (** epsilon-greedy ensemble ({!Bandit}): every slot goes to the
          arm — mutate, varity, direct, grammar, or archived-case
          growth — with the best recent inconsistencies per simulated
          second *)

val all : t array
(** The paper's four approaches in table order. [Bandit] is
    deliberately excluded: paper tables and suites iterate [all]. *)

val name : t -> string
(** Paper spelling: ["VARITY"], ["DIRECT-PROMPT"], ["GRAMMAR-GUIDED"],
    ["LLM4FP"]; the ensemble is ["BANDIT"]. *)

val of_name : string -> t option
(** Case-insensitive. *)

