type query_spec = Named of string | Inline of string

type scope = Scope_server | Scope_session | Scope_registry

type insert =
  | Insert_concept of { concept : string; ind : string }
  | Insert_role of { role : string; subj : string; obj : string }

type request =
  | Hello of { client : string option }
  | Answer of {
      a_id : int option;
      a_query : query_spec;
      a_strategy : string option;
      a_deadline_ms : float option;
      a_limit : int option;
    }
  | Explain of {
      e_id : int option;
      e_query : query_spec;
      e_strategy : string option;
      e_analyze : bool;
    }
  | Update of { u_id : int option; inserts : insert list }
  | Metrics of { m_id : int option; scope : scope }
  | Quit

(* {1 Request parsing} *)

let ( let* ) = Result.bind

let str_field json k =
  Option.bind (Wire.member k json) Wire.to_string_opt

let opt_int_field json k = Option.bind (Wire.member k json) Wire.to_int_opt

let opt_float_field json k = Option.bind (Wire.member k json) Wire.to_float_opt

let query_spec_of json =
  match str_field json "query", str_field json "cq" with
  | Some _, Some _ -> Error "request has both \"query\" and \"cq\""
  | Some name, None -> Ok (Named name)
  | None, Some text -> Ok (Inline text)
  | None, None -> Error "request needs a \"query\" (workload name) or \"cq\" (inline text)"

let insert_of json =
  match str_field json "concept", str_field json "role" with
  | Some _, Some _ -> Error "insert has both \"concept\" and \"role\""
  | Some concept, None -> (
    match str_field json "ind" with
    | Some ind -> Ok (Insert_concept { concept; ind })
    | None -> Error "concept insert needs \"ind\"")
  | None, Some role -> (
    match str_field json "subj", str_field json "obj" with
    | Some subj, Some obj -> Ok (Insert_role { role; subj; obj })
    | _ -> Error "role insert needs \"subj\" and \"obj\"")
  | None, None -> Error "insert needs \"concept\" or \"role\""

let rec inserts_of = function
  | [] -> Ok []
  | j :: rest ->
    let* i = insert_of j in
    let* is = inserts_of rest in
    Ok (i :: is)

let parse_request line =
  let* json =
    match Wire.of_string line with
    | Ok j -> Ok j
    | Error e -> Error ("bad JSON: " ^ e)
  in
  let* op =
    match str_field json "op" with
    | Some op -> Ok (String.uppercase_ascii op)
    | None -> Error "missing \"op\" field"
  in
  let id = opt_int_field json "id" in
  match op with
  | "HELLO" -> Ok (Hello { client = str_field json "client" })
  | "ANSWER" ->
    let* a_query = query_spec_of json in
    Ok
      (Answer
         { a_id = id;
           a_query;
           a_strategy = str_field json "strategy";
           a_deadline_ms = opt_float_field json "deadline_ms";
           a_limit = opt_int_field json "limit" })
  | "EXPLAIN" ->
    let* e_query = query_spec_of json in
    let e_analyze =
      match Option.bind (Wire.member "analyze" json) Wire.to_bool_opt with
      | Some b -> b
      | None -> false
    in
    Ok (Explain { e_id = id; e_query; e_strategy = str_field json "strategy"; e_analyze })
  | "UPDATE" ->
    let* items =
      match Option.bind (Wire.member "insert" json) Wire.to_list_opt with
      | Some xs -> Ok xs
      | None -> Error "UPDATE needs an \"insert\" array"
    in
    let* inserts = inserts_of items in
    if inserts = [] then Error "UPDATE with an empty \"insert\" array"
    else Ok (Update { u_id = id; inserts })
  | "METRICS" ->
    let* scope =
      match str_field json "scope" with
      | None | Some "server" -> Ok Scope_server
      | Some "session" -> Ok Scope_session
      | Some "registry" -> Ok Scope_registry
      | Some s -> Error (Printf.sprintf "unknown metrics scope %S" s)
    in
    Ok (Metrics { m_id = id; scope })
  | "QUIT" -> Ok Quit
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* {1 Reply rendering} *)

let with_id id fields =
  match id with Some i -> ("id", Wire.Int i) :: fields | None -> fields

let render status id fields =
  Wire.to_string (Wire.Obj (("status", Wire.String status) :: with_id id fields))

let ok ~id fields = render "OK" id fields

let error ~id reason = render "ERROR" id [ "reason", Wire.String reason ]

let overloaded ~id ~queue_depth =
  render "OVERLOADED" id [ "queue_depth", Wire.Int queue_depth ]

let timeout ~id ~deadline_ms =
  render "TIMEOUT" id [ "deadline_ms", Wire.Float deadline_ms ]
