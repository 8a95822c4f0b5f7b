val set_default_jobs : int -> unit
(** A no-op: evaluation is sequential. Its only caller is the frozen
    benchmark driver [bench/suite/obda_bench.ml], which asks for one
    job; the next change to that benchmark deletes the call and this
    library. *)
