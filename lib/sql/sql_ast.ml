type expr =
  | Col of string * string
  | Int_lit of int
  | Str_lit of string
  | Case of (cond * expr) list

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
      items : (expr * string) list;
      from : source list;
      where : cond list;
    }
  | Union of query list
  | With of {
      bindings : (string * query) list;
      body : query;
    }

let rec pp_expr ppf = function
  | Col (alias, col) -> Fmt.pf ppf "%s.%s" alias col
  | Int_lit v -> Fmt.int ppf v
  | Str_lit s -> Fmt.pf ppf "'%s'" s
  | Case whens ->
    Fmt.pf ppf "CASE %a END"
      (Fmt.list ~sep:Fmt.sp (fun ppf (c, e) ->
           Fmt.pf ppf "WHEN %a THEN %a" pp_cond c pp_expr e))
      whens

and pp_cond ppf = function
  | Eq (e1, e2) -> Fmt.pf ppf "%a = %a" pp_expr e1 pp_expr e2
  | And cs -> Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any " AND ") pp_cond) cs
  | Or cs -> Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any " OR ") pp_cond) cs

let rec pp ppf = function
  | Select { distinct; items; from; where } ->
    let pp_item ppf (e, alias) = Fmt.pf ppf "%a AS %s" pp_expr e alias in
    let pp_source ppf = function
      | Table { table; alias } -> Fmt.pf ppf "%s %s" table alias
      | Subquery { query; alias } -> Fmt.pf ppf "(%a) %s" pp query alias
    in
    Fmt.pf ppf "SELECT %s%a FROM %a"
      (if distinct then "DISTINCT " else "")
      (Fmt.list ~sep:Fmt.comma pp_item)
      items
      (Fmt.list ~sep:Fmt.comma pp_source)
      from;
    if where <> [] then
      Fmt.pf ppf " WHERE %a" (Fmt.list ~sep:(Fmt.any " AND ") pp_cond) where
  | Union queries ->
    Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any "@ UNION@ ") pp) queries
  | With { bindings; body } ->
    let pp_binding ppf (name, q) = Fmt.pf ppf "%s AS (%a)" name pp q in
    Fmt.pf ppf "WITH %a@ %a" (Fmt.list ~sep:Fmt.comma pp_binding) bindings pp body

let to_string q = Fmt.str "%a" pp q

