(** A small SQL abstract syntax, sufficient for the queries produced by
    FOL reformulations: SELECT [DISTINCT] / UNION / WITH, table and
    subquery sources, equality conditions, and the CASE expressions the
    RDF layout requires. *)

type expr =
  | Col of string * string  (** alias.column *)
  | Int_lit of int
  | Str_lit of string
  | Case of (cond * expr) list  (** CASE WHEN c THEN e … END *)

and cond =
  | Eq of expr * expr
  | And of cond list
  | Or of cond list

type source =
  | Table of {
      table : string;
      alias : string;
    }
  | Subquery of {
      query : query;
      alias : string;
    }

and query =
  | Select of {
      distinct : bool;
      items : (expr * string) list;  (** expression AS alias *)
      from : source list;
      where : cond list;  (** conjunction *)
    }
  | Union of query list  (** set-semantics UNION *)
  | With of {
      bindings : (string * query) list;
      body : query;
    }

val pp : Format.formatter -> query -> unit

val to_string : query -> string
