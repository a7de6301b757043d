let write ~path contents =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d.tmp" (Filename.basename path) (Unix.getpid ()))
  in
  try
    Out_channel.with_open_gen
      [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o666 tmp
      (fun oc -> Out_channel.output_string oc contents);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
