(** Translation of FOL query trees into SQL against a storage layout.

    On the {e simple layout} every concept/role is a table and a CQ is
    a flat select-project-join; on the {e RDF layout} every atom access
    becomes a subquery over the wide DPH/RPH tables with OR conditions
    and CASE expressions probing each predicate column — which is why
    reformulated queries explode in size on that layout (§6.3). JUCQ
    reformulations use the [WITH … SELECT DISTINCT] shape of §3. *)

val of_cq : Rdbms.Layout.t -> Query.Cq.t -> Sql_ast.query

val of_fol : Rdbms.Layout.t -> Query.Fol.t -> Sql_ast.query
