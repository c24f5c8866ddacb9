module E = Axiom.Event

exception Error of { line : int; msg : string }

let err line fmt = Format.kasprintf (fun msg -> raise (Error { line; msg })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Ident of string  (* may contain dots: ld.acq, DMB.FULL, cas.amo.a.l *)
  | Int of int
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Comma
  | Colon
  | Assign  (* := *)
  | Arrow  (* <- *)
  | Eq  (* = *)
  | Eqeq
  | Neq
  | Plus
  | Minus
  | Star
  | Caret
  | Andand  (* /\ *)
  | Oror  (* \/ *)
  | Tilde
  | Newline

let token_name = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int n -> Printf.sprintf "integer %d" n
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Comma -> "','"
  | Colon -> "':'"
  | Assign -> "':='"
  | Arrow -> "'<-'"
  | Eq -> "'='"
  | Eqeq -> "'=='"
  | Neq -> "'!='"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Caret -> "'^'"
  | Andand -> "'/\\'"
  | Oror -> "'\\/'"
  | Tilde -> "'~'"
  | Newline -> "end of line"

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push t = toks := (t, !line) :: !toks in
  let rec go i =
    if i >= n then ()
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
          push Newline;
          incr line;
          go (i + 1)
      | '#' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip i)
      | ';' ->
          push Newline;
          go (i + 1)
      | '(' -> push Lparen; go (i + 1)
      | ')' -> push Rparen; go (i + 1)
      | '{' -> push Lbrace; go (i + 1)
      | '}' -> push Rbrace; go (i + 1)
      | ',' -> push Comma; go (i + 1)
      | '+' -> push Plus; go (i + 1)
      | '*' -> push Star; go (i + 1)
      | '^' -> push Caret; go (i + 1)
      | '~' -> push Tilde; go (i + 1)
      | ':' when i + 1 < n && src.[i + 1] = '=' ->
          push Assign;
          go (i + 2)
      | ':' -> push Colon; go (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '-' ->
          push Arrow;
          go (i + 2)
      | '=' when i + 1 < n && src.[i + 1] = '=' ->
          push Eqeq;
          go (i + 2)
      | '=' -> push Eq; go (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' ->
          push Neq;
          go (i + 2)
      | '/' when i + 1 < n && src.[i + 1] = '\\' ->
          push Andand;
          go (i + 2)
      | '\\' when i + 1 < n && src.[i + 1] = '/' ->
          push Oror;
          go (i + 2)
      | '-' when i + 1 < n && is_digit src.[i + 1] ->
          let rec num j = if j < n && is_digit src.[j] then num (j + 1) else j in
          let j = num (i + 1) in
          push (Int (int_of_string (String.sub src i (j - i))));
          go j
      | '-' -> push Minus; go (i + 1)
      | c when is_digit c ->
          let rec num j = if j < n && is_digit src.[j] then num (j + 1) else j in
          let j = num i in
          push (Int (int_of_string (String.sub src i (j - i))));
          go j
      | c when is_ident_start c ->
          let rec id j = if j < n && is_ident_char src.[j] then id (j + 1) else j in
          let j = id i in
          push (Ident (String.sub src i (j - i)));
          go j
      | c -> err !line "unexpected character %C" c
  in
  go 0;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)

type state = { mutable toks : (token * int) list }

let line st = match st.toks with (_, l) :: _ -> l | [] -> 0

let peek st =
  match st.toks with (t, _) :: _ -> Some t | [] -> None

let skip_newlines st =
  let rec go () =
    match st.toks with
    | (Newline, _) :: rest ->
        st.toks <- rest;
        go ()
    | _ -> ()
  in
  go ()

let next st =
  match st.toks with
  | (t, l) :: rest ->
      st.toks <- rest;
      (t, l)
  | [] -> err 0 "unexpected end of input"

let expect st tok =
  let t, l = next st in
  if t <> tok then err l "expected %s, found %s" (token_name tok) (token_name t)

let ident st =
  match next st with
  | Ident s, _ -> s
  | t, l -> err l "expected identifier, found %s" (token_name t)

let integer st =
  match next st with
  | Int n, _ -> n
  | t, l -> err l "expected integer, found %s" (token_name t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let rec parse_exp st = parse_cmp st

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | Some Eqeq ->
      ignore (next st);
      Ast.Eq (lhs, parse_add st)
  | Some Neq ->
      ignore (next st);
      Ast.Ne (lhs, parse_add st)
  | _ -> lhs

and parse_add st =
  let rec go lhs =
    match peek st with
    | Some Plus ->
        ignore (next st);
        go (Ast.Add (lhs, parse_mul st))
    | Some Minus ->
        ignore (next st);
        go (Ast.Sub (lhs, parse_mul st))
    | Some Caret ->
        ignore (next st);
        go (Ast.Xor (lhs, parse_mul st))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match peek st with
    | Some Star ->
        ignore (next st);
        go (Ast.Mul (lhs, parse_atom st))
    | _ -> lhs
  in
  go (parse_atom st)

and parse_atom st =
  match next st with
  | Int n, _ -> Ast.Int n
  | Ident r, _ -> Ast.Reg r
  | Lparen, _ ->
      let e = parse_exp st in
      expect st Rparen;
      e
  | t, l -> err l "expected expression, found %s" (token_name t)

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)

let fence_names =
  [
    ("MFENCE", E.F_mfence);
    ("DMB.FULL", E.F_dmb_full);
    ("DMB.LD", E.F_dmb_ld);
    ("DMB.ST", E.F_dmb_st);
    ("Frr", E.F_rr);
    ("Frw", E.F_rw);
    ("Frm", E.F_rm);
    ("Fwr", E.F_wr);
    ("Fww", E.F_ww);
    ("Fwm", E.F_wm);
    ("Fmr", E.F_mr);
    ("Fmw", E.F_mw);
    ("Fmm", E.F_mm);
    ("Facq", E.F_acq);
    ("Frel", E.F_rel);
    ("Fsc", E.F_sc);
  ]

let read_ord_of_suffix l = function
  | "" -> E.R_plain
  | ".acq" -> E.R_acq
  | ".q" -> E.R_acq_pc
  | ".sc" -> E.R_sc
  | s -> err l "unknown load annotation %S" s

let write_ord_of_suffix l = function
  | "" -> E.W_plain
  | ".rel" -> E.W_rel
  | ".sc" -> E.W_sc
  | s -> err l "unknown store annotation %S" s

let rmw_kind_of_suffix l = function
  | "x86" -> Ast.Rmw_x86
  | "tcg" -> Ast.Rmw_tcg
  | s -> (
      match String.split_on_char '.' s with
      | impl :: mods ->
          let impl =
            match impl with
            | "amo" -> Ast.Amo
            | "lxsx" -> Ast.Lxsx
            | _ -> err l "unknown rmw kind %S" s
          in
          let acq = List.mem "a" mods and rel = List.mem "l" mods in
          if List.exists (fun m -> m <> "a" && m <> "l") mods then
            err l "unknown rmw modifier in %S" s;
          Ast.Rmw_arm { impl; acq; rel }
      | [] -> err l "unknown rmw kind %S" s)

let split_mnemonic word =
  match String.index_opt word '.' with
  | Some i ->
      (String.sub word 0 i, String.sub word i (String.length word - i))
  | None -> (word, "")

let rec parse_instrs st =
  skip_newlines st;
  match peek st with
  | Some Rbrace | None -> []
  | _ ->
      let i = parse_instr st in
      i :: parse_instrs st

and parse_instr st =
  let word = ident st in
  let l = line st in
  let base, suffix = split_mnemonic word in
  match base with
  | "ld" ->
      let ord = read_ord_of_suffix l suffix in
      let reg = ident st in
      expect st Comma;
      let loc = ident st in
      Ast.Load { reg; loc; ord }
  | "st" ->
      let ord = write_ord_of_suffix l suffix in
      let loc = ident st in
      expect st Comma;
      let value = parse_exp st in
      Ast.Store { loc; value; ord }
  | ("cas" | "xadd" | "xchg") as rmw ->
      let kind =
        rmw_kind_of_suffix l
          (if suffix = "" then err l "%s needs a kind suffix" rmw
           else String.sub suffix 1 (String.length suffix - 1))
      in
      (* either "cas.k r <- X, e, e" or "cas.k X, e, e"; xadd and xchg
         take one operand *)
      let first = ident st in
      let reg, loc =
        match peek st with
        | Some Arrow ->
            ignore (next st);
            (Some first, ident st)
        | _ -> (None, first)
      in
      expect st Comma;
      let e = parse_exp st in
      let op =
        match rmw with
        | "cas" ->
            expect st Comma;
            Ast.Cas { expect = e; desired = parse_exp st }
        | "xadd" -> Ast.Fetch_add e
        | _ -> Ast.Exchange e
      in
      Ast.Rmw { reg; loc; op; kind }
  | "fence" ->
      let name = ident st in
      let f =
        match List.assoc_opt name fence_names with
        | Some f -> f
        | None -> err l "unknown fence %S" name
      in
      Ast.Fence f
  | "if" ->
      let cond = parse_exp st in
      expect st Lbrace;
      let then_ = parse_instrs st in
      expect st Rbrace;
      let else_ =
        match peek st with
        | Some (Ident "else") ->
            ignore (next st);
            expect st Lbrace;
            let e = parse_instrs st in
            expect st Rbrace;
            e
        | _ -> []
      in
      Ast.If { cond; then_; else_ }
  | reg -> (
      match next st with
      | Assign, _ -> Ast.Assign (reg, parse_exp st)
      | t, l -> err l "expected ':=' after %S, found %s" reg (token_name t))

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)

let rec parse_cond st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  match peek st with
  | Some Oror ->
      ignore (next st);
      Ast.Or (lhs, parse_or st)
  | _ -> lhs

and parse_and st =
  let lhs = parse_cond_atom st in
  match peek st with
  | Some Andand ->
      ignore (next st);
      Ast.And (lhs, parse_and st)
  | _ -> lhs

and parse_cond_atom st =
  match next st with
  | Tilde, _ -> Ast.Not (parse_cond_atom st)
  | Lparen, _ ->
      let c = parse_cond st in
      expect st Rparen;
      c
  | Ident "true", _ -> Ast.True
  | Ident name, _ ->
      (* loc = v *)
      expect st Eq;
      Ast.Loc_is (name, integer st)
  | Int tid, _ ->
      (* tid:reg = v *)
      expect st Colon;
      let reg = ident st in
      expect st Eq;
      Ast.Reg_is (tid, reg, integer st)
  | t, l -> err l "expected condition, found %s" (token_name t)

(* ------------------------------------------------------------------ *)
(* Programs and tests                                                  *)

(* Test names may contain '+', '.', digits ("SB+mfences", "2+2W"): the
   name is the remainder of the 'test' line, token surfaces glued. *)
let token_surface = function
  | Ident s -> s
  | Int n -> string_of_int n
  | Plus -> "+"
  | Minus -> "-"
  | Star -> "*"
  | Caret -> "^"
  | Colon -> ":"
  | Eq -> "="
  | t -> token_name t

let parse_name st =
  let rec go acc =
    match peek st with
    | None | Some Newline -> String.concat "" (List.rev acc)
    | Some t ->
        ignore (next st);
        go (token_surface t :: acc)
  in
  let name = go [] in
  if name = "" then err (line st) "expected a test name";
  name

let parse_header st =
  skip_newlines st;
  (match ident st with
  | "test" -> ()
  | w -> err (line st) "expected 'test', found %S" w);
  let name = parse_name st in
  skip_newlines st;
  let init =
    match peek st with
    | Some (Ident "init") ->
        ignore (next st);
        let rec go acc =
          match peek st with
          | Some (Ident loc) ->
              ignore (next st);
              expect st Eq;
              go ((loc, integer st) :: acc)
          | _ -> List.rev acc
        in
        go []
    | _ -> []
  in
  (name, init)

let parse_thread st tid =
  (match ident st with
  | "thread" -> ()
  | w -> err (line st) "expected 'thread', found %S" w);
  (* optional thread name, e.g. P0 *)
  (match peek st with Some (Ident _) -> ignore (next st) | _ -> ());
  expect st Lbrace;
  let code = parse_instrs st in
  expect st Rbrace;
  { Ast.tid; code }

let parse_body st =
  let name, init = parse_header st in
  let rec threads tid =
    skip_newlines st;
    match peek st with
    | Some (Ident "thread") ->
        (* bind first: the argument order of (::) is unspecified *)
        let t = parse_thread st tid in
        t :: threads (tid + 1)
    | _ -> []
  in
  let threads = threads 0 in
  if threads = [] then err (line st) "a test needs at least one thread";
  { Ast.name; init; threads }

let parse_expectation st =
  skip_newlines st;
  match peek st with
  | Some (Ident "forbidden") ->
      ignore (next st);
      Some (Ast.Forbidden (parse_cond st))
  | Some (Ident "allowed") ->
      ignore (next st);
      Some (Ast.Allowed (parse_cond st))
  | _ -> None

let finish st =
  skip_newlines st;
  match peek st with
  | None -> ()
  | Some t -> err (line st) "trailing input: %s" (token_name t)

let parse src =
  let st = { toks = tokenize src } in
  let prog = parse_body st in
  let expect =
    match parse_expectation st with
    | Some e -> e
    | None -> err (line st) "expected 'allowed' or 'forbidden' clause"
  in
  finish st;
  { Ast.prog; expect }

let parse_prog src =
  let st = { toks = tokenize src } in
  let prog = parse_body st in
  (match parse_expectation st with Some _ -> () | None -> ());
  finish st;
  prog

(* ------------------------------------------------------------------ *)
(* Printer (round-trips through [parse])                               *)

let rec exp_src buf e =
  let open Ast in
  let bin a op b =
    Buffer.add_char buf '(';
    exp_src buf a;
    Buffer.add_string buf op;
    exp_src buf b;
    Buffer.add_char buf ')'
  in
  match e with
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Reg r -> Buffer.add_string buf r
  | Add (a, b) -> bin a " + " b
  | Sub (a, b) -> bin a " - " b
  | Mul (a, b) -> bin a " * " b
  | Xor (a, b) -> bin a " ^ " b
  | Eq (a, b) -> bin a " == " b
  | Ne (a, b) -> bin a " != " b

let read_suffix = function
  | E.R_plain -> ""
  | E.R_acq -> ".acq"
  | E.R_acq_pc -> ".q"
  | E.R_sc -> ".sc"

let write_suffix = function E.W_plain -> "" | E.W_rel -> ".rel" | E.W_sc -> ".sc"

let fence_src f =
  match List.find_opt (fun (_, f') -> f' = f) fence_names with
  | Some (name, _) -> name
  | None -> assert false

let rec instr_src buf indent i =
  let pad () = Buffer.add_string buf (String.make indent ' ') in
  pad ();
  (match i with
  | Ast.Load { reg; loc; ord } ->
      Buffer.add_string buf ("ld" ^ read_suffix ord ^ " " ^ reg ^ ", " ^ loc)
  | Ast.Store { loc; value; ord } ->
      Buffer.add_string buf ("st" ^ write_suffix ord ^ " " ^ loc ^ ", ");
      exp_src buf value
  | Ast.Rmw { reg; loc; op; kind } -> (
      Buffer.add_string buf (Ast.rmw_name op ^ "." ^ Ast.rmw_kind_name kind ^ " ");
      (match reg with
      | Some r -> Buffer.add_string buf (r ^ " <- ")
      | None -> ());
      Buffer.add_string buf (loc ^ ", ");
      match op with
      | Ast.Cas { expect; desired } ->
          exp_src buf expect;
          Buffer.add_string buf ", ";
          exp_src buf desired
      | Ast.Fetch_add e | Ast.Exchange e -> exp_src buf e)
  | Ast.Fence f -> Buffer.add_string buf ("fence " ^ fence_src f)
  | Ast.Assign (r, e) ->
      Buffer.add_string buf (r ^ " := ");
      exp_src buf e
  | Ast.If { cond; then_; else_ } ->
      Buffer.add_string buf "if ";
      exp_src buf cond;
      Buffer.add_string buf " {\n";
      List.iter (instr_src buf (indent + 2)) then_;
      pad ();
      Buffer.add_string buf "}";
      if else_ <> [] then begin
        Buffer.add_string buf " else {\n";
        List.iter (instr_src buf (indent + 2)) else_;
        pad ();
        Buffer.add_string buf "}"
      end);
  Buffer.add_char buf '\n'

let rec cond_src buf c =
  match c with
  | Ast.True -> Buffer.add_string buf "true"
  | Ast.Loc_is (l, v) -> Buffer.add_string buf (l ^ "=" ^ string_of_int v)
  | Ast.Reg_is (tid, r, v) ->
      Buffer.add_string buf
        (string_of_int tid ^ ":" ^ r ^ "=" ^ string_of_int v)
  | Ast.And (a, b) ->
      Buffer.add_char buf '(';
      cond_src buf a;
      Buffer.add_string buf " /\\ ";
      cond_src buf b;
      Buffer.add_char buf ')'
  | Ast.Or (a, b) ->
      Buffer.add_char buf '(';
      cond_src buf a;
      Buffer.add_string buf " \\/ ";
      cond_src buf b;
      Buffer.add_char buf ')'
  | Ast.Not a ->
      Buffer.add_string buf "~(";
      cond_src buf a;
      Buffer.add_char buf ')'

let prog_to_source (p : Ast.prog) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("test " ^ p.Ast.name ^ "\n");
  if p.Ast.init <> [] then begin
    Buffer.add_string buf "init";
    List.iter
      (fun (l, v) -> Buffer.add_string buf (" " ^ l ^ "=" ^ string_of_int v))
      p.Ast.init;
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun (t : Ast.thread) ->
      Buffer.add_string buf (Printf.sprintf "thread P%d {\n" t.Ast.tid);
      List.iter (instr_src buf 2) t.Ast.code;
      Buffer.add_string buf "}\n")
    p.Ast.threads;
  Buffer.contents buf

let to_source (t : Ast.test) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (prog_to_source t.Ast.prog);
  (match t.Ast.expect with
  | Ast.Forbidden c ->
      Buffer.add_string buf "forbidden ";
      cond_src buf c
  | Ast.Allowed c ->
      Buffer.add_string buf "allowed ";
      cond_src buf c);
  Buffer.add_char buf '\n';
  Buffer.contents buf
