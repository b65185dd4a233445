(** Concrete textual syntax for WDPTs over arbitrary relational schemas, and
    a facts format for databases. The query syntax is exactly what
    {!Pattern_tree.pp} prints, so parsing and printing round-trip:

    {v
      free (x, y) { R(?x, ?y), S(?x, "some constant", 3) }
        [ { T(?y, ?z) } [ { U(?z) } ];
          { V(?x) } ]
    v}

    [?ident] is a variable, integers and quoted strings are constants, and a
    bare identifier in argument position is a string constant. Facts files
    contain one ground atom per line, e.g. [knows(ann, bob)]; ['#'] starts a
    comment.

    Parse errors carry source positions ([line 3, col 14: expected '}']); the
    lower-level {!parse_spec} additionally returns a {!Source_map.t} so
    static analysis ({!Analysis.Lint}) can point diagnostics at real spans,
    and returns the raw tree description so that non-well-designed input can
    still be analyzed. *)

open Relational

(** A parse failure: a message and the position it refers to ([None] only
    when the input ended unexpectedly and no position is meaningful). *)
type parse_failure = {
  message : string;
  pos : Loc.pos option;
}

(** ["line 3, col 14: expected '}'"] *)
val describe_failure : parse_failure -> string

(** Result of parsing one pattern: the free-variable list and tree
    description (not yet checked for well-designedness), plus the source
    spans of every node and atom. *)
type parsed = {
  free : string list;
  spec : Pattern_tree.spec;
  source : Source_map.t;
}

(** Parse without building the tree — no well-designedness or free-variable
    validation, so ill-formed queries can be diagnosed by the analyzer. *)
val parse_spec : string -> (parsed, parse_failure) result

val parse : string -> (Pattern_tree.t, string) result

(** Unions of WDPTs (Section 6): disjuncts separated by the keyword [UNION],
    e.g. [free (x) { R(?x) } UNION free (x) { S(?x, ?y) }]. *)
val parse_union : string -> (Union.t, string) result

(** Parse one ground atom, e.g. [R(1, "x", foo)]. *)
val parse_fact : string -> (Fact.t, string) result

(** Parse a facts document (one fact per line); errors report the line and
    column of the offending token. A relation used with two arities is
    rejected at the line of the second one. *)
val parse_database : string -> (Database.t, string) result

(** [to_string p] prints in the parseable syntax. *)
val to_string : Pattern_tree.t -> string
