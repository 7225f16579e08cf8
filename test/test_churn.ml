(* Thread-lifecycle (churn) tests: conservation under arbitrary
   spawn/retire schedules, token-ring wraparound with shrinking
   membership, retirement edge cases (retire at t=0, retire-all,
   respawn-same-tid), the descriptive-failure contract of
   [Sched.retire]/[Sched.respawn], churn-trial determinism across jobs,
   and the metrics<->trace cross-check of the churn counters. *)

open Simcore

let smr_names = [ "debra"; "debra_af"; "token"; "token_af"; "hazard"; "hazard_af" ]

(* --- a tiny churnable world over the simulated SMR cores -------------- *)

(* Every op retires a fresh, never-published object, so at any instant the
   allocator's live count must equal the reclaimer's total garbage — the
   conservation invariant all the properties below lean on. The leak
   allocator never recycles handles, so each object is counted once. *)
let build ~n ~seed ~smr_name =
  let sched = Sched.create ~topology:Topology.intel_192t ~n_threads:n ~seed () in
  let alloc = Alloc.Registry.make "leak" sched in
  let base, af = Smr.Smr_registry.parse smr_name in
  let mode = if af then Smr.Free_policy.Amortized 1 else Smr.Free_policy.Batch in
  let policy = Smr.Free_policy.create ~mode ~alloc ~n () in
  let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
  let smr =
    Smr.Smr_registry.make ~token_period:4 ~buffer_size:16 ~debra_check_every:2 base ctx
  in
  (* The runner's teardown chain, minus the validator (no safety here):
     deregister the participant, then flush the grace-proven backlog. *)
  Array.iter
    (fun th ->
      Sched.on_teardown th (fun th -> smr.Smr.Smr_intf.on_thread_exit th);
      Sched.on_teardown th (fun th -> ignore (Smr.Free_policy.drain_all policy th : int)))
    (Sched.threads sched);
  (sched, alloc, policy, smr)

let op (smr : Smr.Smr_intf.t) policy (alloc : Alloc.Alloc_intf.t) th ~retire_new =
  smr.Smr.Smr_intf.begin_op th;
  Sched.work th Metrics.Ds 100;
  if retire_new then begin
    let h = alloc.Alloc.Alloc_intf.malloc th 240 in
    smr.Smr.Smr_intf.retire th h
  end;
  smr.Smr.Smr_intf.end_op th;
  Smr.Free_policy.tick policy th;
  Sched.checkpoint th

(* Run a churn plan: each (tid, retire-after-ops, down-ns) triple retires
   the tid cooperatively after that many ops and, when down-ns >= 0,
   respawns it for a few more mutating ops plus the quiet tail. Returns
   the scheduler (for metrics probes), the allocator's live count, the
   reclaimer's total garbage, and how many respawn bodies actually ran. *)
let run_churn ~n ~seed ~smr_name ~plan ~ops ~quiet_ops =
  let sched, alloc, policy, smr = build ~n ~seed ~smr_name in
  let retire_after = Array.make n max_int in
  let down = Array.make n (-1) in
  List.iter
    (fun (tid, a, d) ->
      retire_after.(tid) <- a;
      down.(tid) <- d)
    plan;
  let quiet th =
    for _ = 1 to quiet_ops do
      op smr policy alloc th ~retire_new:false
    done
  in
  let respawns_ran = ref 0 in
  let body (th : Sched.thread) =
    let tid = th.Sched.tid in
    let dead = ref false in
    let maybe_retire k =
      if (not !dead) && k = retire_after.(tid) then begin
        dead := true;
        Sched.retire sched ~tid;
        if down.(tid) >= 0 then
          Sched.respawn sched ~tid
            ~at:(Sched.now th + down.(tid))
            (fun th ->
              incr respawns_ran;
              for _ = 1 to 6 do
                op smr policy alloc th ~retire_new:true
              done;
              quiet th)
      end
    in
    maybe_retire 0;
    let k = ref 0 in
    while (not !dead) && !k < ops do
      op smr policy alloc th ~retire_new:true;
      incr k;
      maybe_retire !k
    done;
    if not !dead then quiet th
  in
  Array.iter (fun th -> Sched.spawn sched th body) (Sched.threads sched);
  Sched.run sched;
  ( sched,
    Alloc.Obj_table.live_count alloc.Alloc.Alloc_intf.table,
    smr.Smr.Smr_intf.total_garbage (),
    !respawns_ran )

let retires_of sched tid = (Sched.thread sched tid).Sched.metrics.Metrics.thread_retires
let spawns_of sched tid = (Sched.thread sched tid).Sched.metrics.Metrics.thread_spawns

(* --- conservation across arbitrary spawn/retire schedules ------------- *)

let plan_gen =
  QCheck.Gen.(
    let* seed = int_range 1 5000 in
    let* smr_name = oneofl smr_names in
    let* plan =
      flatten_l
        (List.init 4 (fun tid ->
             let* churns = bool in
             if not churns then return None
             else
               let* after = int_range 0 18 in
               let* down = oneofl [ -1; 0; 10_000; 100_000 ] in
               return (Some (tid, after, down))))
    in
    return (seed, smr_name, List.filter_map Fun.id plan))

let plan_arb =
  QCheck.make
    ~print:(fun (seed, smr_name, plan) ->
      Printf.sprintf "%s seed=%d plan=[%s]" smr_name seed
        (String.concat "; "
           (List.map (fun (t, a, d) -> Printf.sprintf "(%d,%d,%d)" t a d) plan)))
    plan_gen

let prop_conservation =
  Helpers.prop ~count:80 "conservation holds under arbitrary churn schedules" plan_arb
    (fun (seed, smr_name, plan) ->
      let _, live, garbage, _ =
        run_churn ~n:4 ~seed ~smr_name ~plan ~ops:24 ~quiet_ops:40
      in
      if live <> garbage then
        QCheck.Test.fail_reportf
          "%d live allocator objects but %d in the reclaimer's ledgers — churn leaked or \
           double-freed"
          live garbage;
      true)

(* --- token-ring wraparound with shrinking membership ------------------ *)

(* Retire every ring member but one, in a schedule-determined order; the
   survivor keeps operating, so the token must keep wrapping over the dead
   tids (including the high ones, exercising the mod-n wrap) and every
   adopted bag must complete its grace rounds and reach the allocator. *)
let wrap_gen =
  QCheck.Gen.(
    let* seed = int_range 1 5000 in
    let* af = bool in
    let* survivor = int_range 0 5 in
    let* afters = flatten_l (List.init 6 (fun _ -> int_range 1 15)) in
    return (seed, af, survivor, afters))

let wrap_arb =
  QCheck.make
    ~print:(fun (seed, af, survivor, afters) ->
      Printf.sprintf "token%s seed=%d survivor=%d afters=[%s]"
        (if af then "_af" else "")
        seed survivor
        (String.concat ";" (List.map string_of_int afters)))
    wrap_gen

let prop_token_wraparound =
  Helpers.prop ~count:40 "token ring wraps over shrinking membership and drains" wrap_arb
    (fun (seed, af, survivor, afters) ->
      let plan =
        List.concat
          (List.mapi
             (fun tid a -> if tid = survivor then [] else [ (tid, a, -1) ])
             afters)
      in
      let smr_name = if af then "token_af" else "token" in
      let _, live, garbage, _ =
        run_churn ~n:6 ~seed ~smr_name ~plan ~ops:20 ~quiet_ops:300
      in
      if live <> garbage then
        QCheck.Test.fail_reportf "conservation: %d live <> %d garbage" live garbage;
      if garbage <> 0 then
        QCheck.Test.fail_reportf
          "ring stalled after membership shrank: %d objects stranded in parked bags" garbage;
      true)

(* --- retirement edge cases -------------------------------------------- *)

let test_retire_at_t0 () =
  (* A thread that retires before its first operation: teardown runs on a
     fresh, empty state and the rest of the run is undisturbed. *)
  let sched, live, garbage, _ =
    run_churn ~n:4 ~seed:3 ~smr_name:"token" ~plan:[ (1, 0, -1) ] ~ops:16 ~quiet_ops:60
  in
  Alcotest.(check int) "tid 1 retired once" 1 (retires_of sched 1);
  Alcotest.(check int) "conservation" live garbage

let test_retire_all () =
  (* Every participant dies. The last teardown finds no live successor, so
     its bags stay parked under the dead tid — still fully accounted. *)
  let sched, live, garbage, _ =
    run_churn ~n:4 ~seed:5 ~smr_name:"debra_af"
      ~plan:[ (0, 2, -1); (1, 2, -1); (2, 3, -1); (3, 4, -1) ]
      ~ops:16 ~quiet_ops:0
  in
  for tid = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "tid %d retired once" tid) 1 (retires_of sched tid)
  done;
  Alcotest.(check int) "conservation with parked bags" live garbage

let test_respawn_same_tid () =
  let sched, live, garbage, respawns =
    run_churn ~n:4 ~seed:9 ~smr_name:"debra" ~plan:[ (2, 3, 1_000) ] ~ops:16 ~quiet_ops:40
  in
  Alcotest.(check int) "respawn body ran" 1 respawns;
  Alcotest.(check bool) "tid 2 alive again" true (Sched.thread sched 2).Sched.alive;
  Alcotest.(check int) "one retire counted" 1 (retires_of sched 2);
  Alcotest.(check int) "one spawn counted" 1 (spawns_of sched 2);
  Alcotest.(check int) "conservation" live garbage

(* --- descriptive failures on bogus retires/respawns ------------------- *)

let check_failure name substrings f =
  match f () with
  | () -> Alcotest.failf "%s: expected Failure" name
  | exception Failure msg ->
      List.iter
        (fun sub ->
          if not (Helpers.contains msg sub) then
            Alcotest.failf "%s: message %S does not mention %S" name msg sub)
        substrings

let test_retire_failures () =
  let sched = Sched.create ~topology:Topology.intel_192t ~n_threads:2 ~seed:1 () in
  check_failure "negative tid" [ "unknown tid"; "-1" ] (fun () -> Sched.retire sched ~tid:(-1));
  check_failure "out-of-range tid" [ "unknown tid"; "7" ] (fun () -> Sched.retire sched ~tid:7);
  Sched.retire sched ~tid:1;
  check_failure "double retire" [ "already retired"; "1" ] (fun () -> Sched.retire sched ~tid:1)

let test_respawn_failures () =
  let sched = Sched.create ~topology:Topology.intel_192t ~n_threads:2 ~seed:1 () in
  check_failure "respawn of a live thread" [ "still alive" ] (fun () ->
      Sched.respawn sched ~tid:0 ~at:10 (fun _ -> ()));
  Sched.retire sched ~tid:1;
  check_failure "respawn into the past" [ "before its clock" ] (fun () ->
      Sched.respawn sched ~tid:1 ~at:(-5) (fun _ -> ()));
  let ran = ref false in
  Sched.respawn sched ~tid:1 ~at:0 (fun _ -> ran := true);
  check_failure "double respawn" [ "already has a respawn" ] (fun () ->
      Sched.respawn sched ~tid:1 ~at:0 (fun _ -> ()));
  Sched.run sched;
  Alcotest.(check bool) "respawn body ran" true !ran;
  Alcotest.(check bool) "thread alive again" true (Sched.thread sched 1).Sched.alive

(* --- churn trials: determinism and the metrics<->trace cross-check ---- *)

let churn_cfg =
  {
    Runtime.Config.default with
    Runtime.Config.ds = "list";
    smr = "debra_af";
    threads = 8;
    key_range = 256;
    warmup_ns = 200_000;
    duration_ns = 1_500_000;
    grace_ns = 1_500_000;
    seed = 11;
    trials = 3;
    validate = true;
    churn =
      Some
        (Runtime.Config.Rolling_restart
           { first_ns = 300_000; every_ns = 120_000; down_ns = 250_000 });
  }

let digests ts = List.map Runtime.Trial.digest ts

let test_churn_jobs_bit_identical () =
  let a = Runtime.Runner.run ~jobs:1 churn_cfg in
  let b = Runtime.Runner.run ~jobs:4 churn_cfg in
  Alcotest.(check (list string)) "-j1 and -j4 digests" (digests a) (digests b);
  List.iter
    (fun (t : Runtime.Trial.t) ->
      Alcotest.(check bool) "churn actually happened" true (t.Runtime.Trial.thread_retires > 0);
      Alcotest.(check int) "no violations" 0 t.Runtime.Trial.violations)
    a

let test_churn_trial_round_trip () =
  (* The churn counters are conditional JSON fields; a churn trial's
     digest must survive serialization like any other. *)
  let t = Runtime.Runner.run_trial { churn_cfg with Runtime.Config.trials = 1 } ~seed:11 in
  Alcotest.(check bool) "spawns recorded" true (t.Runtime.Trial.thread_spawns > 0);
  let t' = Runtime.Trial.of_json (Json.parse_exn (Json.render (Runtime.Trial.to_json t))) in
  Alcotest.(check int) "retires survive" t.Runtime.Trial.thread_retires
    t'.Runtime.Trial.thread_retires;
  Alcotest.(check int) "teardown frees survive" t.Runtime.Trial.teardown_frees
    t'.Runtime.Trial.teardown_frees;
  Alcotest.(check string) "digest survives" (Runtime.Trial.digest t) (Runtime.Trial.digest t')

let test_churn_metrics_match_trace () =
  let tracer = Tracer.create ~capacity:(1 lsl 20) () in
  let cfg = { churn_cfg with Runtime.Config.trials = 1 } in
  let t = Runtime.Runner.run_trial ~tracer cfg ~seed:11 in
  let p = Simtrace.Profile.of_tracer tracer in
  Alcotest.(check int) "no dropped events" 0 p.Simtrace.Profile.dropped;
  Alcotest.(check int) "spawns match trace" t.Runtime.Trial.thread_spawns
    p.Simtrace.Profile.thread_spawns;
  Alcotest.(check int) "retires match trace" t.Runtime.Trial.thread_retires
    p.Simtrace.Profile.thread_retires;
  Alcotest.(check int) "teardown frees match trace" t.Runtime.Trial.teardown_frees
    p.Simtrace.Profile.teardown_frees;
  Alcotest.(check bool) "nonzero churn" true (t.Runtime.Trial.thread_retires > 0)

let suite =
  ( "churn",
    [
      prop_conservation;
      prop_token_wraparound;
      Helpers.quick "retire at t=0" test_retire_at_t0;
      Helpers.quick "retire-all parks and accounts" test_retire_all;
      Helpers.quick "respawn of the same tid" test_respawn_same_tid;
      Helpers.quick "retire of bogus tids fails descriptively" test_retire_failures;
      Helpers.quick "respawn misuse fails descriptively" test_respawn_failures;
      Helpers.quick "churn trials bit-identical across jobs" test_churn_jobs_bit_identical;
      Helpers.quick "churn trial JSON round trip" test_churn_trial_round_trip;
      Helpers.quick "churn metrics match the trace" test_churn_metrics_match_trace;
    ] )
