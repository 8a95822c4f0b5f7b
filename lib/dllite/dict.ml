(* Domain-safe: [encode] may be called from parallel plan arms (the
   [Project] operator interns head constants), racing with [find] in
   sibling arms, so every access goes through the dictionary's mutex.
   The critical sections are a hash lookup or an array slot write —
   short enough that the uncontended fast path dominates. *)
type t = {
  lock : Mutex.t;
  codes : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable next : int;
}

let create () =
  {
    lock = Mutex.create ();
    codes = Hashtbl.create 1024;
    names = Array.make 1024 "";
    next = 0;
  }

let with_lock d f =
  Mutex.lock d.lock;
  match f () with
  | v ->
    Mutex.unlock d.lock;
    v
  | exception e ->
    Mutex.unlock d.lock;
    raise e

let encode d s =
  with_lock d (fun () ->
      match Hashtbl.find_opt d.codes s with
      | Some c -> c
      | None ->
        let c = d.next in
        if c >= Array.length d.names then begin
          let grown = Array.make (2 * Array.length d.names) "" in
          Array.blit d.names 0 grown 0 c;
          d.names <- grown
        end;
        d.names.(c) <- s;
        d.next <- c + 1;
        Hashtbl.add d.codes s c;
        c)

let find d s = with_lock d (fun () -> Hashtbl.find_opt d.codes s)

let decode d c =
  with_lock d (fun () ->
      if c < 0 || c >= d.next then Fmt.invalid_arg "Dict.decode: unknown code %d" c
      else d.names.(c))

(* Codes below [next] are never rewritten, and growth copies [names]
   into a fresh array, so a snapshot of both taken under the lock
   decodes those codes without it. *)
let decoder d =
  let names, next = with_lock d (fun () -> d.names, d.next) in
  fun c ->
    if c < 0 || c >= next then Fmt.invalid_arg "Dict.decode: unknown code %d" c
    else Array.unsafe_get names c

let size d = with_lock d (fun () -> d.next)
