(** The one way a file reaches disk: write-and-rename.

    Pages ({!Strudel.Render_pool.file_sink}), segments ({!Segment.write}),
    shard manifests and the CLI's outputs all replace their files through
    {!write}, so a reader (or a crash) sees the old contents or the new
    ones, never a truncated file. *)

val write : path:string -> string -> unit
(** Replace [path]'s contents with the string: write a temporary file
    beside [path] (same directory, so the rename is atomic), then rename
    it over [path].  The temporary file is created with the mode (and
    umask) a plain [open_out] would give, and is removed again if the
    write or the rename raises. *)
