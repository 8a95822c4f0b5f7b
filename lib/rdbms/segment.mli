(** One run of a column as a store file holds it: up to 65,536
    dictionary codes, frame-of-reference encoded (values are stored as
    [v - base]) and bit-packed little-endian into 64-bit words. Its
    frame — minimum ([base]), width, length and maximum — is what the
    file's directory says about it. Only {!Storage.save} encodes and only
    {!Storage.load} decodes: in memory a table is its plain sorted
    arrays. *)

type t = private {
  base : int;  (** minimum value of the run *)
  bits : int;  (** code width; 0 when the run is constant *)
  len : int;  (** number of rows *)
  zmax : int;  (** maximum value of the run *)
}

val frame : int array -> off:int -> len:int -> t
(** The frame of the [len] values of the array starting at [off].
    Values must be non-negative (dictionary codes). An empty slice
    yields a valid zero-row run. *)

val of_fields : base:int -> bits:int -> len:int -> zmax:int -> (t, string) result
(** A frame read from a file's directory. Validates the invariants —
    width bounds, [base <= zmax], zero-width runs are constant, a word
    count that fits an OCaml int — and reports a human-readable reason
    instead of producing an entry that would crash on {!unpack}. *)

val word_count : t -> int
(** [ceil (len * bits / 64)] payload words. *)

val bytes : t -> int
(** What the run takes in a file: its payload words plus its 48-byte
    directory entry (the frame, the word offset and the distinct
    count). *)

val pack : t -> int array -> off:int -> Bytes.t
(** The payload words of the run framed by [t] over the same slice, as
    [8 * word_count t] little-endian bytes. *)

val unpack : t -> Bytes.t -> int array -> at:int -> unit
(** [unpack t words dst ~at] decodes the run from its payload bytes
    (the first [8 * word_count t] of [words]) into [dst.(at) ..
    dst.(at + t.len - 1)]. Every decoded value lies in
    [[base, base + 2^bits)]. *)
