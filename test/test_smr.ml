(* Reclaimer protocol tests: a miniature workload drives each algorithm
   inside the simulator with the grace-period validator armed, and the
   structural behaviours the paper relies on are asserted: epochs advance,
   garbage is bounded, AF defers, the token circulates, buffered reclaimers
   pass at their threshold, and a deliberately unsafe reclaimer is caught. *)

open Simcore

(* Drive [ops_per_thread] operations on a shared ABtree under [smr_name]. *)
let drive ?(n = 4) ?(ops_per_thread = 3000) ?(mode = Smr.Free_policy.Batch) smr_name =
  let ctx, sched = Helpers.make_ctx ~n ~mode () in
  let smr = Smr.Smr_registry.make ~buffer_size:64 smr_name ctx in
  let ds_ctx =
    {
      Ds.Ds_intf.alloc = ctx.Smr.Smr_intf.alloc;
      retire = smr.Smr.Smr_intf.retire;
      node_cost = 10;
    }
  in
  let ds = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      ds := Some (Ds.Abtree.make ds_ctx th));
  Sched.run sched;
  let ds = Option.get !ds in
  Array.iter
    (fun (th : Sched.thread) ->
      Sched.spawn sched th (fun th ->
          for _ = 1 to ops_per_thread do
            (match ctx.Smr.Smr_intf.safety with
            | Some s -> Smr.Safety.note_op_begin s ~tid:th.Sched.tid ~time:(Sched.now th)
            | None -> ());
            smr.Smr.Smr_intf.begin_op th;
            let key = Rng.int_below th.Sched.rng 256 in
            (Sched.atomically th (fun () ->
                 if Rng.bool th.Sched.rng then ignore (ds.Ds.Ds_intf.insert th key)
                 else ignore (ds.Ds.Ds_intf.delete th key)));
            smr.Smr.Smr_intf.end_op th;
            Sched.checkpoint th
          done;
          match ctx.Smr.Smr_intf.safety with
          | Some s -> Smr.Safety.note_quiescent s ~tid:th.Sched.tid
          | None -> ()))
    (Sched.threads sched);
  Sched.run sched;
  (ctx, sched, smr, ds)

let grace_period_names =
  [ "debra"; "qsbr"; "token"; "token-naive"; "token-passfirst"; "rcu"; "ibr"; "hazard" ]

let safety_test name =
  Helpers.quick ("safety_" ^ name) (fun () ->
      let ctx, _, smr, _ = drive name in
      ignore smr;
      match ctx.Smr.Smr_intf.safety with
      | Some s ->
          let v = Smr.Safety.violations s in
          (match v with
          | [] -> ()
          | x :: _ -> Alcotest.failf "%d violations, first: %a" (List.length v) Smr.Safety.pp_violation x);
          Alcotest.(check bool) "frees were actually checked" true (Smr.Safety.checked_frees s > 0)
      | None -> Alcotest.fail "validator missing")

let safety_test_af name =
  Helpers.quick ("safety_" ^ name ^ "_af") (fun () ->
      let ctx, _, _, _ = drive ~mode:(Smr.Free_policy.Amortized 1) name in
      match ctx.Smr.Smr_intf.safety with
      | Some s -> Alcotest.(check int) "no violations under AF" 0 (Smr.Safety.violation_count s)
      | None -> Alcotest.fail "validator missing")

let test_unsafe_immediate_caught () =
  let ctx, _, _, _ = drive ~n:4 ~ops_per_thread:500 "unsafe-immediate" in
  match ctx.Smr.Smr_intf.safety with
  | Some s ->
      Alcotest.(check bool) "the validator catches free-at-retire" true
        (Smr.Safety.violation_count s > 0)
  | None -> Alcotest.fail "validator missing"

let test_leak_freedom name =
  Helpers.quick ("leak_freedom_" ^ name) (fun () ->
      let ctx, _, smr, ds = drive name in
      let live = Alloc.Obj_table.live_count ctx.Smr.Smr_intf.alloc.Alloc.Alloc_intf.table in
      Alcotest.(check int) "live = reachable + unreclaimed"
        (ds.Ds.Ds_intf.node_count () + smr.Smr.Smr_intf.total_garbage ())
        live)

let test_epochs_advance () =
  let _, sched, _, _ = drive "debra" in
  let total = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.epochs) 0 (Sched.threads sched) in
  Alcotest.(check bool) "debra advanced epochs" true (total > 3)

let test_debra_reclaims () =
  let _, sched, _, _ = drive "debra" in
  let freed = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.frees) 0 (Sched.threads sched) in
  Alcotest.(check bool) "objects were freed" true (freed > 100)

let test_none_never_frees () =
  let _, sched, smr, _ = drive "none" in
  let freed = Array.fold_left (fun acc (th : Sched.thread) -> acc + th.Sched.metrics.Metrics.frees) 0 (Sched.threads sched) in
  Alcotest.(check int) "leaky reclaimer frees nothing" 0 freed;
  Alcotest.(check bool) "garbage only grows" true (smr.Smr.Smr_intf.total_garbage () > 0)

let test_token_rounds () =
  let _, sched, _, _ = drive "token" in
  (* Every thread must have received the token many times. *)
  Array.iter
    (fun (th : Sched.thread) ->
      Alcotest.(check bool) "token visited this thread" true
        (th.Sched.metrics.Metrics.epochs > 10))
    (Sched.threads sched)

let test_token_af_defers () =
  let ctx, _, _, _ = drive ~mode:(Smr.Free_policy.Amortized 1) "token" in
  (* Under AF the policy's freeable lists were used (splices happened); this
     is observable as pending counts that rose and drained. *)
  Alcotest.(check bool) "freeable lists mostly drained" true
    (Smr.Free_policy.total_pending ctx.Smr.Smr_intf.policy < 100_000)

let test_buffered_pass_at_threshold () =
  Helpers.in_sim ~n:1 (fun sched th ->
      let alloc = Alloc.Registry.make "jemalloc" sched in
      let policy = Smr.Free_policy.create ~mode:Smr.Free_policy.Batch ~alloc ~n:1 () in
      let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
      let smr = Smr.Buffered.hp ~buffer_size:10 ctx in
      (* Retire 10 objects: a pass fires at the threshold but frees the
         (empty) previous generation; 10 more trigger the second pass which
         frees the first 10. *)
      let retire_batch () =
        for _ = 1 to 10 do
          let h = alloc.Alloc.Alloc_intf.malloc th 64 in
          smr.Smr.Smr_intf.retire th h
        done;
        smr.Smr.Smr_intf.end_op th
      in
      retire_batch ();
      Alcotest.(check int) "first pass frees nothing (two generations)" 0
        th.Sched.metrics.Metrics.frees;
      Alcotest.(check int) "one pass happened" 1 th.Sched.metrics.Metrics.epochs;
      retire_batch ();
      Alcotest.(check int) "second pass frees the previous generation" 10
        th.Sched.metrics.Metrics.frees)

let test_nbr_pays_signals () =
  Helpers.in_sim ~n:4 (fun sched th ->
      let alloc = Alloc.Registry.make "jemalloc" sched in
      let policy = Smr.Free_policy.create ~mode:Smr.Free_policy.Batch ~alloc ~n:4 () in
      let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
      let smr = Smr.Buffered.nbr ~buffer_size:4 ctx in
      let t0 = th.Sched.metrics.Metrics.smr_ns in
      for _ = 1 to 4 do
        smr.Smr.Smr_intf.retire th (alloc.Alloc.Alloc_intf.malloc th 64)
      done;
      smr.Smr.Smr_intf.end_op th;
      let cost = Sched.cost sched in
      Alcotest.(check bool) "a pass costs at least n signals" true
        (th.Sched.metrics.Metrics.smr_ns - t0 >= 4 * cost.Cost_model.signal))

let test_registry_af_parsing () =
  Alcotest.(check (pair string bool)) "af suffix" ("debra", true) (Smr.Smr_registry.parse "debra_af");
  Alcotest.(check (pair string bool)) "no suffix" ("nbr+", false) (Smr.Smr_registry.parse "nbr+");
  Alcotest.(check bool) "unknown name rejected" true
    (try
       let ctx, _ = Helpers.make_ctx () in
       ignore (Smr.Smr_registry.make "bogus" ctx);
       false
     with Invalid_argument _ -> true)

let test_grace_period_flags () =
  let ctx, _ = Helpers.make_ctx () in
  List.iter
    (fun name ->
      let smr = Smr.Smr_registry.make name ctx in
      Alcotest.(check bool) (name ^ " validates") true smr.Smr.Smr_intf.uses_grace_periods)
    (* "hazard" is the genuine HP reclaimer, whose op-granularity free rule
       is exactly the validator's — unlike "hp", the cost-model variant. *)
    [ "debra"; "qsbr"; "token"; "rcu"; "ibr"; "hazard" ];
  List.iter
    (fun name ->
      let smr = Smr.Smr_registry.make name ctx in
      Alcotest.(check bool) (name ^ " exempt") false smr.Smr.Smr_intf.uses_grace_periods)
    [ "hp"; "he"; "wfe"; "nbr"; "nbr+"; "none" ]

(* --- the validator around [begin_op] ----------------------------------- *)

(* Two threads under periodic Token-EBR (check every free) over an
   allocator whose frees are slow and yield. Thread 0 retires 200 objects
   per operation, so each of its bag frees spans many of thread 1's short
   operations; it passes the token mid-free, and thread 1 frees objects it
   retired after thread 0 entered [begin_op]. Thread 0 holds no reference
   while it frees, so no violation may be recorded. *)
let test_token_pass_mid_free_no_violation () =
  let n = 2 in
  let sched = Helpers.make_sched ~n () in
  let base = Alloc.Registry.make "leak" sched in
  let alloc =
    {
      base with
      Alloc.Alloc_intf.free =
        (fun th h ->
          Sched.work th Metrics.Free 1_000;
          Sched.checkpoint th;
          base.Alloc.Alloc_intf.free th h);
    }
  in
  let safety = Smr.Safety.create ~n () in
  let policy = Smr.Free_policy.create ~safety ~mode:Smr.Free_policy.Batch ~alloc ~n () in
  let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = Some safety } in
  let smr = Smr.Smr_registry.make ~token_period:1 "token" ctx in
  Array.iter
    (fun th ->
      Sched.spawn sched th (fun th ->
          let tid = th.Sched.tid in
          while Sched.now th < 1_000_000 do
            Smr.Safety.note_op_begin safety ~tid ~time:(Sched.now th);
            smr.Smr.Smr_intf.begin_op th;
            for _ = 1 to if tid = 0 then 200 else 1 do
              smr.Smr.Smr_intf.retire th (alloc.Alloc.Alloc_intf.malloc th 64)
            done;
            Sched.work th Metrics.Ds 100;
            smr.Smr.Smr_intf.end_op th;
            Sched.checkpoint th
          done;
          Smr.Safety.note_quiescent safety ~tid))
    (Sched.threads sched);
  Sched.run sched;
  Alcotest.(check bool) "frees were validated" true (Smr.Safety.checked_frees safety > 1_000);
  match Smr.Safety.violations safety with
  | [] -> ()
  | v :: _ -> Alcotest.fail (Format.asprintf "false violation: %a" Smr.Safety.pp_violation v)

(* The other half of the rule: once [begin_op] has returned the operation is
   live, so a thread stalled there still blocks frees of anything retired
   after it — here freed at once by the deliberately unsafe reclaimer. *)
let test_stalled_after_begin_op_blocks () =
  let ctx, sched = Helpers.make_ctx ~n:2 ~alloc:"leak" () in
  let safety = Option.get ctx.Smr.Smr_intf.safety in
  let smr = Smr.Smr_registry.make "unsafe-immediate" ctx in
  let stalled_at = ref (-1) in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      Smr.Safety.note_op_begin safety ~tid:0 ~time:(Sched.now th);
      smr.Smr.Smr_intf.begin_op th;
      stalled_at := Sched.now th;
      Sched.wait th Metrics.Idle 1_000_000);
  Sched.spawn sched (Sched.thread sched 1) (fun th ->
      Sched.wait th Metrics.Idle 1_000;
      Smr.Safety.note_op_begin safety ~tid:1 ~time:(Sched.now th);
      smr.Smr.Smr_intf.begin_op th;
      smr.Smr.Smr_intf.retire th (ctx.Smr.Smr_intf.alloc.Alloc.Alloc_intf.malloc th 64);
      smr.Smr.Smr_intf.end_op th;
      Smr.Safety.note_quiescent safety ~tid:1);
  Sched.run sched;
  match Smr.Safety.violations safety with
  | [ v ] ->
      Alcotest.(check int) "blocked by the stalled thread" 0 v.Smr.Safety.blocking_thread;
      Alcotest.(check bool) "retired after its op began" true
        (v.Smr.Safety.retired_at > !stalled_at)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let suite =
  ( "smr",
    List.map safety_test grace_period_names
    @ List.map safety_test_af [ "debra"; "qsbr"; "token"; "hazard" ]
    @ List.map test_leak_freedom
        [ "debra"; "token"; "qsbr"; "hp"; "nbr"; "hyaline"; "none"; "hazard" ]
    @ [
        Helpers.quick "unsafe_immediate_caught" test_unsafe_immediate_caught;
        Helpers.quick "epochs_advance" test_epochs_advance;
        Helpers.quick "debra_reclaims" test_debra_reclaims;
        Helpers.quick "none_never_frees" test_none_never_frees;
        Helpers.quick "token_rounds" test_token_rounds;
        Helpers.quick "token_af_defers" test_token_af_defers;
        Helpers.quick "buffered_pass_at_threshold" test_buffered_pass_at_threshold;
        Helpers.quick "nbr_pays_signals" test_nbr_pays_signals;
        Helpers.quick "registry_af_parsing" test_registry_af_parsing;
        Helpers.quick "grace_period_flags" test_grace_period_flags;
        Helpers.quick "token_pass_mid_free_no_violation" test_token_pass_mid_free_no_violation;
        Helpers.quick "stalled_after_begin_op_blocks" test_stalled_after_begin_op_blocks;
      ] )
