(* Command-line usage errors: a bad name, list element or count is refused
   by Cmdliner before any work starts (exit 124, with a message naming the
   valid values), never an uncaught exception (exit 125) and never a green
   run that did nothing. *)

(* Run a built executable, returning its exit code and its stderr with
   each run of whitespace collapsed to one space (Cmdliner wraps lines). *)
let run exe args =
  let err = Filename.temp_file "cli" ".err" in
  let code = Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err) in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  let words = String.split_on_char ' ' (String.map (function '\n' | '\t' -> ' ' | c -> c) text) in
  (code, String.concat " " (List.filter (( <> ) "") words))

let epochs = "../bin/epochs.exe"
let simcheck = "../bin/simcheck.exe"

let usage_error ?(mentions = []) exe args () =
  let code, err = run exe args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") 124 code;
  List.iter
    (fun m ->
      Alcotest.(check bool) (Printf.sprintf "%s: stderr mentions %S" cmd m) true
        (Helpers.contains err m))
    mentions

(* Each name-valued flag lists the names of its registry. *)
let bad_names =
  [
    ([ "run"; "--machine"; "foo" ], [ "'intel'"; "'amd-2s-256t'" ]);
    ([ "run"; "--ds"; "nope" ], List.map (Printf.sprintf "'%s'") Ds.Ds_registry.names);
    ([ "run"; "--smr"; "nosuch" ], [ "'debra'"; "'token_af'" ]);
    ([ "run"; "--alloc"; "nosuch" ], List.map (Printf.sprintf "'%s'") Alloc.Registry.names);
    ([ "run"; "--churn"; "bogus" ], [ "rolling:FIRST_NS" ]);
    ([ "sweep"; "--smr"; "debra,nosuch" ], [ "'all_af'"; "'debra'" ]);
    ([ "sweep"; "--machine"; "foo" ], [ "'intel'" ]);
    ([ "sweep"; "--ds"; "nope" ], [ "'skiplist'" ]);
    ([ "sweep"; "--alloc"; "nosuch" ], [ "'jemalloc'" ]);
    ([ "sweep"; "--churn"; "rolling:1:x:3" ], [ "rolling:FIRST_NS" ]);
    ([ "sweep"; "--threads"; "4,x" ], [ "\"x\" is not a positive integer" ]);
    ([ "sweep"; "--threads"; "4,0" ], [ "\"0\" is not a positive integer" ]);
  ]

let suite =
  ( "cli",
    List.map
      (fun (args, mentions) ->
        Helpers.quick ("epochs " ^ String.concat " " args) (usage_error ~mentions epochs args))
      bad_names
    @ [
        Helpers.quick "simcheck run --budget 0"
          (usage_error ~mentions:[ "\"0\" is not a positive integer" ] simcheck
             [ "run"; "--budget"; "0"; "-j"; "1" ]);
        Helpers.quick "simcheck run --budget=-2"
          (usage_error ~mentions:[ "\"-2\" is not a positive integer" ] simcheck
             [ "run"; "--budget=-2"; "-j"; "1" ]);
      ] )
