type out_col =
  [ `Col of string
  | `Const of string ]

let scan_cols atom =
  let open Query in
  match atom with
  | Atom.Ca (_, Term.Var v) -> [ v ]
  | Atom.Ca (_, Term.Cst _) -> []
  | Atom.Ra (_, Term.Var v1, Term.Var v2) -> if v1 = v2 then [ v1 ] else [ v1; v2 ]
  | Atom.Ra (_, Term.Var v, Term.Cst _) | Atom.Ra (_, Term.Cst _, Term.Var v) -> [ v ]
  | Atom.Ra (_, Term.Cst _, Term.Cst _) -> []

type sip_dir =
  | Build_to_probe
  | Probe_to_build

type t =
  | Scan of Query.Atom.t
  | Hash_join of {
      left : t;
      right : t;
      on : string list;
    }
  | Merge_join of {
      left : t;
      right : t;
      on : string list;
    }
  | Index_join of {
      left : t;
      atom : Query.Atom.t;
      probe_col : string;
    }
  | Project of {
      input : t;
      out : out_col list;
    }
  | Distinct of t
  | Union of {
      cols : string list;
      inputs : t list;
    }
  | Materialize of t
  | Sip of {
      join : t;
      dir : sip_dir;
    }

let rec out_cols = function
  | Scan atom -> scan_cols atom
  | Hash_join { left; right; on } | Merge_join { left; right; on } ->
    out_cols left @ List.filter (fun c -> not (List.mem c on)) (out_cols right)
  | Index_join { left; atom; _ } ->
    let left_cols = out_cols left in
    left_cols @ List.filter (fun c -> not (List.mem c left_cols)) (scan_cols atom)
  | Project { out; _ } ->
    (* constant outputs are numbered positionally so two constants in
       one projection get distinct names; must match
       [Relation.project] *)
    List.rev
      (snd
         (List.fold_left
            (fun (ci, acc) -> function
              | `Col c -> ci, c :: acc
              | `Const _ -> ci + 1, ("_const" ^ string_of_int ci) :: acc)
            (0, []) out))
  | Distinct p | Materialize p -> out_cols p
  | Union { cols; _ } -> cols
  | Sip { join; _ } -> out_cols join

(* An injective serialisation of a plan. [pp] is for humans and
   conflates a variable with an equally-named constant (both print as
   the bare name), so it must never key a cache; this form
   length-prefixes every string and tags every term/operator, making
   it a prefix code — two distinct plans always differ. *)
let structural_key plan =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let term = function
    | Query.Term.Var v ->
      Buffer.add_char buf 'V';
      str v
    | Query.Term.Cst c ->
      Buffer.add_char buf 'K';
      str c
  in
  let atom = function
    | Query.Atom.Ca (p, t) ->
      Buffer.add_char buf 'C';
      str p;
      term t
    | Query.Atom.Ra (p, t1, t2) ->
      Buffer.add_char buf 'R';
      str p;
      term t1;
      term t2
  in
  let strs l =
    Buffer.add_string buf (string_of_int (List.length l));
    Buffer.add_char buf '[';
    List.iter str l
  in
  let rec go = function
    | Scan a ->
      Buffer.add_char buf 'S';
      atom a
    | Hash_join { left; right; on } ->
      Buffer.add_char buf 'H';
      strs on;
      go left;
      go right
    | Merge_join { left; right; on } ->
      Buffer.add_char buf 'M';
      strs on;
      go left;
      go right
    | Index_join { left; atom = a; probe_col } ->
      Buffer.add_char buf 'I';
      str probe_col;
      atom a;
      go left
    | Project { input; out } ->
      Buffer.add_char buf 'P';
      Buffer.add_string buf (string_of_int (List.length out));
      Buffer.add_char buf '[';
      List.iter
        (function
          | `Col c ->
            Buffer.add_char buf 'c';
            str c
          | `Const k ->
            Buffer.add_char buf 'k';
            str k)
        out;
      go input
    | Distinct p ->
      Buffer.add_char buf 'D';
      go p
    | Union { cols; inputs } ->
      Buffer.add_char buf 'U';
      strs cols;
      Buffer.add_string buf (string_of_int (List.length inputs));
      Buffer.add_char buf '(';
      List.iter go inputs
    | Materialize p ->
      Buffer.add_char buf 'W';
      go p
    | Sip { join; dir } ->
      Buffer.add_char buf 'Z';
      Buffer.add_char buf (match dir with Build_to_probe -> 'b' | Probe_to_build -> 'p');
      go join
  in
  go plan;
  Buffer.contents buf

let rec pp ppf = function
  | Scan atom -> Fmt.pf ppf "Scan(%a)" Query.Atom.pp atom
  | Hash_join { left; right; on } ->
    Fmt.pf ppf "@[<v2>HashJoin[%a]@,%a@,%a@]"
      (Fmt.list ~sep:Fmt.comma Fmt.string)
      on pp left pp right
  | Merge_join { left; right; on } ->
    Fmt.pf ppf "@[<v2>MergeJoin[%a]@,%a@,%a@]"
      (Fmt.list ~sep:Fmt.comma Fmt.string)
      on pp left pp right
  | Index_join { left; atom; probe_col } ->
    Fmt.pf ppf "@[<v2>IndexJoin[%s->%a]@,%a@]" probe_col Query.Atom.pp atom pp left
  | Project { input; out } ->
    let pp_out ppf = function
      | `Col c -> Fmt.string ppf c
      | `Const v -> Fmt.pf ppf "'%s'" v
    in
    Fmt.pf ppf "@[<v2>Project[%a]@,%a@]" (Fmt.list ~sep:Fmt.comma pp_out) out pp input
  | Distinct p -> Fmt.pf ppf "@[<v2>Distinct@,%a@]" pp p
  | Union { inputs; _ } ->
    Fmt.pf ppf "@[<v2>Union(%d)@,%a@]" (List.length inputs)
      (Fmt.list ~sep:Fmt.cut pp) inputs
  | Materialize p -> Fmt.pf ppf "@[<v2>Materialize@,%a@]" pp p
  | Sip { join; dir } ->
    Fmt.pf ppf "@[<v2>Sip[%s]@,%a@]"
      (match dir with
      | Build_to_probe -> "build->probe"
      | Probe_to_build -> "probe->build")
      pp join
