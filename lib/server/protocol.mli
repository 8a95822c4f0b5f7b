(** The request/reply vocabulary of the OBDA line protocol.

    Every frame is one {!Wire} value on one line. A client sends a
    JSON object whose ["op"] field names the verb (case-insensitive:
    [HELLO], [ANSWER], [EXPLAIN], [UPDATE], [METRICS], [QUIT]); the
    server replies with a JSON object whose ["status"] field is one of
    ["OK"], ["ERROR"], ["OVERLOADED"] or ["TIMEOUT"]. Parsing is
    total: any malformed line becomes an [Error] carried back to the
    client as an ERROR reply, never a disconnect. The full grammar and
    a worked example per verb live in DESIGN.md §13. *)

type query_spec =
  | Named of string  (** ["query"]: a LUBM workload name, e.g. ["Q5"] *)
  | Inline of string  (** ["cq"]: conjunctive-query text, e.g. ["q(x) :- Person(x)"] *)

type scope =
  | Scope_server  (** aggregate request/shed/latency counters *)
  | Scope_session  (** the counters of the requesting session only *)
  | Scope_registry  (** the full {!Obs.Metrics} registry dump *)

type insert =
  | Insert_concept of { concept : string; ind : string }
  | Insert_role of { role : string; subj : string; obj : string }

type request =
  | Hello of { client : string option }
  | Answer of {
      a_id : int option;  (** echoed back; pipelined replies may reorder *)
      a_query : query_spec;
      a_strategy : string option;  (** overrides the server default *)
      a_deadline_ms : float option;  (** overrides the server default *)
      a_limit : int option;  (** max rows in the reply; [0] = count only *)
    }
  | Explain of {
      e_id : int option;
      e_query : query_spec;
      e_strategy : string option;
      e_analyze : bool;  (** execute and report actual cardinalities *)
    }
  | Update of { u_id : int option; inserts : insert list }
  | Metrics of { m_id : int option; scope : scope }
  | Quit

val parse_request : string -> (request, string) result
(** Parses one frame. Errors describe the defect (unknown op, missing
    field, bad JSON) and leave the connection usable. *)

(** {2 Reply rendering}

    Helpers shared by the server and tests so golden tests compare
    against the same renderer the server uses. *)

val ok : id:int option -> (string * Wire.t) list -> string
(** An ["OK"] reply with the given extra fields; [id] is included when
    present. *)

val error : id:int option -> string -> string
(** An ["ERROR"] reply with a ["reason"] field. *)

val overloaded : id:int option -> queue_depth:int -> string
(** The shed reply: ["OVERLOADED"] plus the configured queue depth so
    clients can size their back-off. *)

val timeout : id:int option -> deadline_ms:float -> string
(** The deadline-exceeded reply. *)
