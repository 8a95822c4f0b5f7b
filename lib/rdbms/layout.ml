type t =
  | Simple of Storage.t
  | Rdf of Rdf_layout.t

let simple_of_abox abox = Simple (Storage.of_abox abox)

let of_storage s = Simple s

let rdf_of_abox ?width abox = Rdf (Rdf_layout.of_abox ?width abox)

let name = function Simple _ -> "simple" | Rdf _ -> "rdf"

let dict = function Simple s -> Storage.dict s | Rdf r -> Rdf_layout.dict r

let concept_rows t n =
  match t with
  | Simple s -> Storage.concept_rows s n
  | Rdf r -> Rdf_layout.concept_rows r n

let role_rows t n =
  match t with Simple s -> Storage.role_rows s n | Rdf r -> Rdf_layout.role_rows r n

let role_cols t n =
  match t with Simple s -> Storage.role_cols s n | Rdf r -> Rdf_layout.role_cols r n

let role_matches t n side =
  match t with
  | Simple s -> Storage.role_matches s n side
  | Rdf r -> (
    (* every probe re-reads the wide table, as the layout's SQL would *)
    let sorted a =
      Array.sort Int.compare a;
      a
    in
    match side with
    | `Subject -> fun v -> sorted (Array.map snd (Rdf_layout.role_lookup_subject_arr r n v))
    | `Object -> fun v -> sorted (Array.map fst (Rdf_layout.role_lookup_object_arr r n v)))

let concept_mem t n v =
  match t with
  | Simple s -> Storage.concept_mem s n v
  | Rdf r -> Array.exists (fun m -> m = v) (Rdf_layout.concept_rows r n)

let concept_card t n =
  match t with
  | Simple s -> (Storage.concept_stats s n).Storage.card
  | Rdf r -> Rdf_layout.concept_card r n

let role_card t n =
  match t with
  | Simple s -> (Storage.role_stats s n).Storage.card
  | Rdf r -> Rdf_layout.role_card r n

let role_ndv t n =
  match t with
  | Simple s ->
    let st = Storage.role_stats s n in
    st.Storage.ndv.(0), st.Storage.ndv.(1)
  | Rdf r -> Rdf_layout.role_ndv r n

let scan_work t pred =
  match t, pred with
  | Simple s, `Concept n -> (Storage.concept_stats s n).Storage.card
  | Simple s, `Role n -> (Storage.role_stats s n).Storage.card
  | Rdf r, `Concept _ -> Rdf_layout.type_row_count r
  | Rdf r, `Role _ -> Rdf_layout.dph_row_count r * Rdf_layout.width r

let total_facts = function
  | Simple s -> Storage.total_facts s
  | Rdf r -> Rdf_layout.total_facts r

(* Storage and RDF-layout stamps come from separate counters: the
   parity keeps them apart. *)
let uid = function
  | Simple s -> 2 * Storage.uid s
  | Rdf r -> (2 * Rdf_layout.uid r) + 1

let empty_epoch = function
  | Simple s -> Storage.empty_epoch s
  | Rdf r -> Rdf_layout.empty_epoch r

let individual_count = function
  | Simple s -> Storage.individual_count s
  | Rdf r -> Rdf_layout.individual_count r

(* Histogram-backed selectivity for an equality on a role column,
   refined to 0 when the code is provably absent
   ({!Storage.role_code_absent}) — a certainty the equi-depth
   histogram cannot express (it answers a bucket average for any
   in-range code). The RDF layout keeps only coarse statistics, like
   the store it models. *)
let role_eq_rows t role side code =
  match t with
  | Simple s ->
    Option.map
      (fun h ->
        if Storage.role_code_absent s role side code then 0.
        else Histogram.est_eq h code)
      (Storage.role_histogram s role side)
  | Rdf _ -> None

let compact = function Simple s -> Storage.compact s | Rdf _ -> ()

let delta_fact_count = function
  | Simple s -> Storage.delta_fact_count s
  | Rdf _ -> 0

let insert_concept t ~concept ~ind =
  match t with
  | Simple s -> Storage.insert_concept s ~concept ~ind
  | Rdf r -> Rdf_layout.insert_concept r ~concept ~ind

let insert_role t ~role ~subj ~obj =
  match t with
  | Simple s -> Storage.insert_role s ~role ~subj ~obj
  | Rdf r -> Rdf_layout.insert_role r ~role ~subj ~obj
