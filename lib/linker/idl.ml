type ctype = I64 | F64 | Ptr | Void
type signature = { name : string; ret : ctype; args : ctype list }

exception Parse_error of { line : int; msg : string }

let err line msg = raise (Parse_error { line; msg })

let ctype_of_string line = function
  | "i64" -> I64
  | "f64" -> F64
  | "ptr" -> Ptr
  | "void" -> Void
  | s -> err line (Printf.sprintf "unknown type %S" s)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '@'

(* Tokenize a prototype into identifiers and punctuation. *)
let tokens line s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' -> go (i + 1) acc
      | '(' | ')' | ',' | ';' -> go (i + 1) (String.make 1 s.[i] :: acc)
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          go !j (String.sub s i (!j - i) :: acc)
      | c -> err line (Printf.sprintf "unexpected character %C" c)
  in
  go 0 []

let parse_signature_at line s =
  match tokens line s with
  | ret :: name :: "(" :: rest ->
      let ret = ctype_of_string line ret in
      let rec args acc = function
        | [ ")" ] | [ ")"; ";" ] -> List.rev acc
        | "void" :: rest' when acc = [] && (rest' = [ ")" ] || rest' = [ ")"; ";" ])
          ->
            []
        | ty :: tl -> (
            let ty = ctype_of_string line ty in
            match tl with
            | "," :: tl' -> args (ty :: acc) tl'
            | [ ")" ] | [ ")"; ";" ] -> List.rev (ty :: acc)
            | _ :: "," :: tl' (* named argument *) -> args (ty :: acc) tl'
            | [ _; ")" ] | [ _; ")"; ";" ] -> List.rev (ty :: acc)
            | _ -> err line "malformed argument list")
        | [] -> err line "unterminated argument list"
      in
      let args = args [] rest in
      if List.mem Void args then err line "void is not a valid argument type";
      { name; ret; args }
  | _ -> err line "expected: <ret-type> <name> ( <args> );"

let parse_signature s = parse_signature_at 0 s

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

let parse text =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i l ->
         let l = String.trim (strip_comment l) in
         if l = "" then [] else [ parse_signature_at (i + 1) l ])
       lines)

let ctype_name = function I64 -> "i64" | F64 -> "f64" | Ptr -> "ptr" | Void -> "void"

let pp_ctype ppf t = Fmt.string ppf (ctype_name t)

let pp_signature ppf s =
  Fmt.pf ppf "%a %s(%a);" pp_ctype s.ret s.name
    (Fmt.list ~sep:(Fmt.any ", ") pp_ctype)
    s.args

let to_string sigs =
  String.concat "\n" (List.map (Fmt.str "%a" pp_signature) sigs)
