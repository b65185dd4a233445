open Relational

type token =
  | FREE
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | VAR of string
  | IDENT of string
  | INT of int
  | STRING of string

type parse_failure = {
  message : string;
  pos : Loc.pos option;
}

let describe_failure f =
  match f.pos with
  | Some p -> Printf.sprintf "%s: %s" (Loc.describe_pos p) f.message
  | None -> f.message

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '-' | '.' | '@' -> true
  | _ -> false

(* advance a position over src.[p.offset .. j-1] *)
let advance_to src p j =
  let q = ref p in
  for k = p.Loc.offset to j - 1 do
    q := Loc.advance !q src.[k]
  done;
  !q

let tokenize src =
  let n = String.length src in
  let rec go p acc =
    let i = p.Loc.offset in
    if i >= n then Ok (List.rev acc, p)
    else
      let c = src.[i] in
      let single tok = go (Loc.advance p c) ((tok, Loc.make_span p (Loc.advance p c)) :: acc) in
      match c with
      | ' ' | '\t' | '\n' | '\r' -> go (Loc.advance p c) acc
      | '#' ->
          let rec eol j = if j >= n || src.[j] = '\n' then j else eol (j + 1) in
          go (advance_to src p (eol i)) acc
      | '(' -> single LPAREN
      | ')' -> single RPAREN
      | '{' -> single LBRACE
      | '}' -> single RBRACE
      | '[' -> single LBRACKET
      | ']' -> single RBRACKET
      | ',' -> single COMMA
      | ';' -> single SEMI
      | '"' ->
          let rec close j =
            if j >= n then Error { message = "unterminated string literal"; pos = Some p }
            else if src.[j] = '"' then Ok j
            else close (j + 1)
          in
          (match close (i + 1) with
          | Error e -> Error e
          | Ok j ->
              let q = advance_to src p (j + 1) in
              go q ((STRING (String.sub src (i + 1) (j - i - 1)), Loc.make_span p q) :: acc))
      | '?' ->
          let rec word j = if j < n && is_ident_char src.[j] then word (j + 1) else j in
          let j = word (i + 1) in
          if j = i + 1 then Error { message = "empty variable name"; pos = Some p }
          else
            let q = advance_to src p j in
            go q ((VAR (String.sub src (i + 1) (j - i - 1)), Loc.make_span p q) :: acc)
      | '-' | '0' .. '9' ->
          let rec num j =
            if j < n && (match src.[j] with '0' .. '9' -> true | _ -> false) then
              num (j + 1)
            else j
          in
          let j = num (i + 1) in
          (match int_of_string_opt (String.sub src i (j - i)) with
          | Some k ->
              let q = advance_to src p j in
              go q ((INT k, Loc.make_span p q) :: acc)
          | None -> Error { message = "bad number"; pos = Some p })
      | c when is_ident_char c ->
          let rec word j = if j < n && is_ident_char src.[j] then word (j + 1) else j in
          let j = word i in
          let w = String.sub src i (j - i) in
          let tok = if String.lowercase_ascii w = "free" then FREE else IDENT w in
          let q = advance_to src p j in
          go q ((tok, Loc.make_span p q) :: acc)
      | c -> Error { message = Printf.sprintf "unexpected character %C" c; pos = Some p }
  in
  go Loc.start_pos []

exception Parse_error of parse_failure

type state = {
  mutable toks : (token * Loc.span) list;
  eof : Loc.pos;
}

let peek st = match st.toks with (t, _) :: _ -> Some t | [] -> None
let peek_span st = match st.toks with (_, s) :: _ -> Some s | [] -> None
let here st = match st.toks with (_, s) :: _ -> s.Loc.start | [] -> st.eof
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let fail st message = raise (Parse_error { message; pos = Some (here st) })

let expect st t name =
  match peek st with
  | Some t' when t' = t ->
      let s = Option.get (peek_span st) in
      advance st;
      s
  | _ -> fail st ("expected " ^ name)

let term st =
  match peek st with
  | Some (VAR x) ->
      advance st;
      Term.var x
  | Some (IDENT w) ->
      advance st;
      Term.str w
  | Some (STRING s) ->
      advance st;
      Term.str s
  | Some (INT k) ->
      advance st;
      Term.int k
  | _ -> fail st "expected a term"

let rec comma_sep st elem close =
  match peek st with
  | Some t when t = close -> []
  | _ ->
      let x = elem st in
      (match peek st with
      | Some COMMA ->
          advance st;
          x :: comma_sep st elem close
      | _ -> [ x ])

let atom st =
  match peek st with
  | Some (IDENT r) ->
      let start = (Option.get (peek_span st)).Loc.start in
      advance st;
      ignore (expect st LPAREN "'('");
      let args = comma_sep st term RPAREN in
      let close = expect st RPAREN "')'" in
      (Atom.make r args, Loc.make_span start close.Loc.stop)
  | _ -> fail st "expected a relation name"

(* node descriptions annotated with spans, in syntactic order *)
type node_ann = {
  n_atoms : (Atom.t * Loc.span) list;
  n_span : Loc.span;
  n_kids : node_ann list;
}

let rec node st =
  let open_brace = expect st LBRACE "'{'" in
  let atoms = comma_sep st atom RBRACE in
  let close_brace = expect st RBRACE "'}'" in
  let kids =
    match peek st with
    | Some LBRACKET ->
        advance st;
        let rec sep () =
          let k = node st in
          match peek st with
          | Some SEMI ->
              advance st;
              k :: sep ()
          | _ -> [ k ]
        in
        let kids = sep () in
        ignore (expect st RBRACKET "']'");
        kids
    | _ -> []
  in
  { n_atoms = atoms;
    n_span = Loc.make_span open_brace.Loc.start close_brace.Loc.stop;
    n_kids = kids }

let var_name st =
  match peek st with
  | Some (IDENT x) ->
      advance st;
      x
  | Some (VAR x) ->
      advance st;
      x
  | _ -> fail st "expected a variable name"

type parsed = {
  free : string list;
  spec : Pattern_tree.spec;
  source : Source_map.t;
}

(* flatten in the same preorder as Pattern_tree.flatten so that node indices
   in the source map agree with the built tree's *)
let to_parsed free ann =
  let nodes = ref [] in
  let rec go a =
    nodes := a :: !nodes;
    List.iter go a.n_kids
  in
  go ann;
  let in_order = List.rev !nodes in
  let node_spans = Array.of_list (List.map (fun a -> a.n_span) in_order) in
  let atom_spans =
    Array.of_list
      (List.map (fun a -> Array.of_list (List.map snd a.n_atoms)) in_order)
  in
  let rec spec_of a =
    Pattern_tree.Node (List.map fst a.n_atoms, List.map spec_of a.n_kids)
  in
  { free;
    spec = spec_of ann;
    source = Source_map.make ~node_spans ~atom_spans }

let one_wdpt st =
  ignore (expect st FREE "'free'");
  ignore (expect st LPAREN "'('");
  let free = comma_sep st var_name RPAREN in
  ignore (expect st RPAREN "')'");
  let ann = node st in
  (free, ann)

let run_parser src f =
  match tokenize src with
  | Error e -> Error e
  | Ok (toks, eof) -> (
      let st = { toks; eof } in
      try Ok (f st) with Parse_error e -> Error e)

let no_trailing st =
  match peek st with
  | None -> ()
  | Some _ -> fail st "trailing tokens"

let parse_spec src =
  run_parser src (fun st ->
      let free, ann = one_wdpt st in
      no_trailing st;
      to_parsed free ann)

let parse src =
  match parse_spec src with
  | Error e -> Error (describe_failure e)
  | Ok { free; spec; _ } -> (
      try Ok (Pattern_tree.make ~free spec) with Invalid_argument e -> Error e)

let parse_union src =
  let result =
    run_parser src (fun st ->
        let rec go acc =
          let free, ann = one_wdpt st in
          let { free; spec; _ } = to_parsed free ann in
          let p =
            try Pattern_tree.make ~free spec
            with Invalid_argument e -> raise (Parse_error { message = e; pos = None })
          in
          match peek st with
          | Some (IDENT w) when String.uppercase_ascii w = "UNION" ->
              advance st;
              go (p :: acc)
          | None -> List.rev (p :: acc)
          | Some _ -> fail st "expected UNION or end of input"
        in
        go [])
  in
  Result.map_error describe_failure result

let parse_fact_failure line =
  run_parser line (fun st ->
      let a, _ = atom st in
      no_trailing st;
      if Atom.is_ground a then Atom.to_fact a
      else raise (Parse_error { message = "facts must be ground (no variables)"; pos = None }))

let parse_fact line = Result.map_error describe_failure (parse_fact_failure line)

let parse_database doc =
  let db = Database.create () in
  (* relation name -> (arity, line that first gave it) *)
  let arities = Hashtbl.create 16 in
  let rec go n = function
    | [] -> Ok db
    | line :: rest ->
        let stripped = String.trim line in
        if stripped = "" || stripped.[0] = '#' then go (n + 1) rest
        else
          match parse_fact_failure stripped with
          | Ok f -> (
              let rel = Fact.rel f and arity = Fact.arity f in
              match Hashtbl.find_opt arities rel with
              | Some (a, first) when a <> arity ->
                  Error
                    (Printf.sprintf
                       "line %d: relation %s has arity %d, but line %d gave \
                        it arity %d"
                       n rel arity first a)
              | known ->
                  if known = None then Hashtbl.add arities rel (arity, n);
                  Database.add db f;
                  go (n + 1) rest)
          | Error e ->
              (* the fact was tokenized in isolation: re-anchor its position
                 (always line 1) at this line of the document, shifted past
                 any leading whitespace lost to trimming *)
              let leading =
                let rec f i =
                  if i < String.length line && (line.[i] = ' ' || line.[i] = '\t')
                  then f (i + 1)
                  else i
                in
                f 0
              in
              Error
                (match e.pos with
                | Some p ->
                    Printf.sprintf "line %d, col %d: %s" n (p.Loc.col + leading)
                      e.message
                | None -> Printf.sprintf "line %d: %s" n e.message)
  in
  go 1 (String.split_on_char '\n' doc)

let to_string p = Format.asprintf "%a" Pattern_tree.pp p
