type t = {
  tbox_uid : int;
  empty : (string, unit) Hashtbl.t;
  hopeless : (string, unit) Hashtbl.t;
  digest : string;
}

let none =
  { tbox_uid = -1; empty = Hashtbl.create 1; hopeless = Hashtbl.create 1; digest = "" }

module SS = Dllite.Tbox.String_set

let make tbox ~empty =
  let names =
    SS.of_list (Dllite.Tbox.concept_names tbox @ Dllite.Tbox.role_names tbox)
  in
  let empties = SS.filter empty names in
  let table set =
    let h = Hashtbl.create (max 1 (SS.cardinal set)) in
    SS.iter (fun n -> Hashtbl.replace h n ()) set;
    h
  in
  let hopeless =
    SS.filter (fun n -> SS.subset (Dllite.Tbox.dep tbox n) empties) empties
  in
  {
    tbox_uid = Dllite.Tbox.uid tbox;
    empty = table empties;
    hopeless = table hopeless;
    digest =
      (if SS.is_empty empties then ""
       else Digest.to_hex (Digest.string (String.concat "\n" (SS.elements empties))));
  }

let is_empty t n = Hashtbl.mem t.empty n

let is_hopeless t n = Hashtbl.mem t.hopeless n

let prunes t = Hashtbl.length t.empty > 0

let empty_count t = Hashtbl.length t.empty

let hopeless_count t = Hashtbl.length t.hopeless

let digest t = t.digest

let check t tbox =
  if prunes t && t.tbox_uid <> Dllite.Tbox.uid tbox then
    invalid_arg "Emptiness: snapshot of another TBox"
