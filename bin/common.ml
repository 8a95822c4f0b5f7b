(* What obda-cli and obda-server share: the knowledge-base and engine
   arguments, and loading the knowledge base they describe. *)

open Cmdliner

(* The program name, e.g. "obda-cli" for obda_cli.exe: the prefix of
   every error message. *)
let prog =
  String.map
    (function '_' -> '-' | c -> c)
    (Filename.remove_extension (Filename.basename Sys.executable_name))

let fail fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s: %s@." prog msg;
      exit 1)
    fmt

(* {1 Arguments} *)

let facts_arg =
  Arg.(value & opt int 20_000 & info [ "facts"; "n" ] ~docv:"N" ~doc:"Number of facts to generate.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let data_arg =
  Arg.(value & opt (some string) None
       & info [ "data" ] ~docv:"FILE" ~doc:"Load the ABox from $(docv) instead of generating it.")

let rdf_arg =
  Arg.(value & opt (some string) None
       & info [ "rdf" ] ~docv:"FILE"
           ~doc:"Load both TBox and ABox from an RDF (Turtle subset) graph; overrides --tbox/--data.")

let store_arg ~doc = Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

let tbox_arg ~doc = Arg.(value & opt (some string) None & info [ "tbox" ] ~docv:"FILE" ~doc)

let engine_arg =
  let kinds = [ "pglite", `Pglite; "db2lite", `Db2lite ] in
  Arg.(value & opt (enum kinds) `Pglite
       & info [ "engine" ] ~docv:"ENGINE" ~doc:"Engine profile: $(b,pglite) or $(b,db2lite).")

let layout_arg =
  let layouts = [ "simple", `Simple; "rdf", `Rdf ] in
  Arg.(value & opt (enum layouts) `Simple
       & info [ "layout" ] ~docv:"LAYOUT" ~doc:"Storage layout: $(b,simple) or $(b,rdf).")

let plan_cache_arg =
  Arg.(value & opt int Obda.default_plan_cache_capacity
       & info [ "plan-cache" ] ~docv:"N" ~doc:"Plan-cache capacity in entries ($(b,0) disables it).")

let reform_cache_arg =
  Arg.(value & opt int Reform.Perfectref.default_cache_capacity
       & info [ "reform-cache" ] ~docv:"N"
           ~doc:"Reformulation-cache capacity in entries ($(b,0) disables it).")

(* "ucq, uscq, ..., gdl20ms-ext or edl-ext" *)
let strategy_list =
  match List.rev Obda.strategy_names with
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
  | [] -> ""

let apply_caches plan_cap reform_cap =
  Obda.set_plan_cache_capacity plan_cap;
  Reform.Perfectref.set_cache_capacity reform_cap

(* {1 Loading} *)

let tbox_of tbox_file =
  match tbox_file with
  | Some file -> Syntax.Tbox_text.load file
  | None -> Lubm.Ontology.tbox

let load_storage file =
  match Rdbms.Storage.load file with Ok s -> s | Error msg -> fail "%s" msg

(* The knowledge base a command operates on: an RDF graph, a custom
   TBox with generated/loaded data, or the built-in LUBMe setup. *)
let load_kb rdf tbox_file data facts seed =
  match rdf with
  | Some file ->
    let kb = Rdf.Rdfs.load_kb file in
    Dllite.Kb.tbox kb, Dllite.Kb.abox kb
  | None ->
    let tbox = tbox_of tbox_file in
    let abox =
      match data with
      | Some file -> (
        match Dllite.Abox.load file with
        | Ok abox -> abox
        | Error e -> fail "%s: %a" file Dllite.Abox.pp_parse_error e)
      | None -> Lubm.Generator.generate ~seed ~target_facts:facts ()
    in
    tbox, abox

(* The TBox and an engine over the store file when one is given (the
   simple layout), otherwise over the knowledge base of [load_kb]. *)
let load_engine store rdf tbox_file data facts seed engine_kind layout =
  match store with
  | Some file ->
    ( tbox_of tbox_file,
      Obda.make_engine_of_layout engine_kind (Rdbms.Layout.of_storage (load_storage file)) )
  | None ->
    let tbox, abox = load_kb rdf tbox_file data facts seed in
    tbox, Obda.make_engine engine_kind layout abox
