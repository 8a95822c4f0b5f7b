let set_default_jobs (_ : int) = ()
