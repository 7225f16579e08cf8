(* The domain pool: submission-order reassembly, error propagation, and the
   headline guarantee — parallel trial fan-out is bit-identical to
   sequential execution (the digest lists match entry by entry). *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order" (List.map succ xs)
    (Runtime.Pool.map ~jobs:4 succ xs);
  Alcotest.(check (list int)) "empty task list" [] (Runtime.Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int))
    "more jobs than tasks" [ 1; 2 ]
    (Runtime.Pool.map ~jobs:16 succ [ 0; 1 ])

let test_map_sequential_when_jobs_1 () =
  (* jobs:1 must not spawn domains: tasks run inline on the calling domain,
     observable through unsynchronized shared state staying coherent. *)
  let sum = ref 0 in
  let _ =
    Runtime.Pool.map ~jobs:1
      (fun x ->
        sum := !sum + x;
        x)
      (List.init 50 Fun.id)
  in
  Alcotest.(check int) "inline execution" (50 * 49 / 2) !sum

let test_map_propagates_exception () =
  (* The first failing task in submission order wins, even when a later
     (or concurrently earlier-finishing) task also fails. *)
  let f x = if x mod 3 = 2 then failwith (Printf.sprintf "task %d" x) else x in
  Alcotest.check_raises "first failure in submission order" (Failure "task 2") (fun () ->
      ignore (Runtime.Pool.map ~jobs:4 f (List.init 20 Fun.id)))

let test_parse_jobs () =
  Alcotest.(check (option int)) "plain" (Some 4) (Runtime.Pool.parse_jobs "4");
  Alcotest.(check (option int)) "trimmed" (Some 2) (Runtime.Pool.parse_jobs " 2\n");
  Alcotest.(check (option int)) "zero is invalid" None (Runtime.Pool.parse_jobs "0");
  Alcotest.(check (option int)) "negative is invalid" None (Runtime.Pool.parse_jobs "-3");
  Alcotest.(check (option int)) "garbage is invalid" None (Runtime.Pool.parse_jobs "many")

(* Run [f] with EPOCHS_JOBS set to [v], restoring the previous value (an
   empty value reads as unset). *)
let with_jobs_env v f =
  let saved = Option.value (Sys.getenv_opt Runtime.Pool.env_var) ~default:"" in
  Unix.putenv Runtime.Pool.env_var v;
  Fun.protect ~finally:(fun () -> Unix.putenv Runtime.Pool.env_var saved) f

let test_resolve_jobs () =
  let check = Alcotest.(check (result int string)) in
  check "explicit" (Ok 3) (Runtime.Pool.resolve_jobs (Some 3));
  check "zero" (Error "jobs (-j) must be at least 1, got 0") (Runtime.Pool.resolve_jobs (Some 0));
  check "negative" (Error "jobs (-j) must be at least 1, got -2")
    (Runtime.Pool.resolve_jobs (Some (-2)));
  with_jobs_env "abc" (fun () ->
      check "malformed EPOCHS_JOBS" (Error "EPOCHS_JOBS=\"abc\" is not a positive integer")
        (Runtime.Pool.resolve_jobs None);
      check "explicit -j wins over the environment" (Ok 2) (Runtime.Pool.resolve_jobs (Some 2));
      Alcotest.check_raises "default_jobs raises"
        (Invalid_argument "EPOCHS_JOBS=\"abc\" is not a positive integer") (fun () ->
          ignore (Runtime.Pool.default_jobs ())));
  with_jobs_env "0" (fun () ->
      check "zero EPOCHS_JOBS" (Error "EPOCHS_JOBS=\"0\" is not a positive integer")
        (Runtime.Pool.resolve_jobs None));
  with_jobs_env " 5 " (fun () -> check "EPOCHS_JOBS" (Ok 5) (Runtime.Pool.resolve_jobs None));
  with_jobs_env "" (fun () ->
      check "empty EPOCHS_JOBS is unset" (Ok (Domain.recommended_domain_count ()))
        (Runtime.Pool.resolve_jobs None))

(* The determinism contract on real simulations: for suite entries of the
   regression harness, a 4-domain run of [Runner.run] must produce exactly
   the digest list of a sequential run. Any shared mutable state leaking
   between trials would break this. *)
let determinism_entry_ids = [ "ll-ebr-n1"; "ll-token-n8"; "sl-ebr-n8" ]

let test_parallel_matches_sequential () =
  List.iter
    (fun id ->
      let entry =
        List.find (fun (e : Regress.Suite.entry) -> e.Regress.Suite.id = id)
          Regress.Suite.builtin
      in
      (* Four trials so the pool actually has work to distribute. *)
      let cfg = { entry.Regress.Suite.config with Runtime.Config.trials = 4 } in
      let digests jobs = List.map Runtime.Trial.digest (Runtime.Runner.run ~jobs cfg) in
      Alcotest.(check (list string))
        (id ^ ": jobs:4 digests = sequential digests")
        (digests 1) (digests 4))
    determinism_entry_ids

let test_parallel_trial_seeds () =
  (* Trials keep their consecutive-seed identity through the pool. *)
  let entry = List.hd Regress.Suite.builtin in
  let cfg = { entry.Regress.Suite.config with Runtime.Config.trials = 3 } in
  let seeds =
    List.map (fun (t : Runtime.Trial.t) -> t.Runtime.Trial.seed) (Runtime.Runner.run ~jobs:3 cfg)
  in
  Alcotest.(check (list int))
    "seed order preserved"
    [ cfg.Runtime.Config.seed; cfg.Runtime.Config.seed + 1; cfg.Runtime.Config.seed + 2 ]
    seeds

let suite =
  ( "pool",
    [
      Helpers.quick "map_preserves_order" test_map_preserves_order;
      Helpers.quick "map_sequential_when_jobs_1" test_map_sequential_when_jobs_1;
      Helpers.quick "map_propagates_exception" test_map_propagates_exception;
      Helpers.quick "parse_jobs" test_parse_jobs;
      Helpers.quick "resolve_jobs" test_resolve_jobs;
      Helpers.quick "parallel_matches_sequential" test_parallel_matches_sequential;
      Helpers.quick "parallel_trial_seeds" test_parallel_trial_seeds;
    ] )
