(* The trial engine: builds the full stack (scheduler, allocator, free
   policy, reclaimer, data structure), prefills to the steady-state size,
   then runs the paper's workload — every thread repeatedly flips a coin and
   inserts or deletes a uniform random key — measuring a fixed window of
   virtual time after a warmup, exactly like the methodology of §3. *)

open Simcore

type shared_state = {
  mutable arrived : int;  (* threads that finished prefilling *)
  mutable measure_start : int;
  mutable deadline : int;
}

type garbage_trace = { by_epoch : (int, int) Hashtbl.t }

let note_garbage g ~epoch ~count =
  Hashtbl.replace g.by_epoch epoch (count + Option.value ~default:0 (Hashtbl.find_opt g.by_epoch epoch))

(* Key sampler for the configured distribution. Zipf ranks are drawn in
   O(1) from a cached alias table (rank r has weight 1/(r+1)^theta, one
   table per (key_range, theta) shared across trials — see Sampler), with
   ranks scattered over the key space by a fixed multiplicative hash so hot
   keys are not neighbours in the structure. *)
let make_sampler (cfg : Config.t) =
  match cfg.Config.key_dist with
  | Config.Uniform -> fun (th : Sched.thread) -> Rng.int_below th.Sched.rng cfg.Config.key_range
  | Config.Zipf theta ->
      let n = cfg.Config.key_range in
      let table = Sampler.get ~key_range:n ~theta in
      let scatter r = r * 2654435761 land max_int mod n in
      fun (th : Sched.thread) -> scatter (Sampler.sample table th.Sched.rng)

(* One operation of the measured workload. *)
let do_op (cfg : Config.t) (smr : Smr.Smr_intf.t) (ds : Ds.Ds_intf.t) safety per_node_scaled
    sample (th : Sched.thread) =
  let op_start = Sched.now th in
  (match safety with
  | Some s -> Smr.Safety.note_op_begin s ~tid:th.Sched.tid ~time:(Sched.now th)
  | None -> ());
  smr.Smr.Smr_intf.begin_op th;
  Sched.work th Metrics.Ds cfg.Config.cost.Cost_model.op_fixed;
  let key = sample th in
  let coin = Rng.float th.Sched.rng in
  (* The operation itself is atomic (linearizable): no other simulated
     thread interleaves with the tree mutation. The bracket form avoids a
     fresh closure per operation; the ds operations do not raise. *)
  Sched.atomic_enter th;
  let result =
    if coin < cfg.Config.insert_pct then begin
      th.Sched.metrics.Metrics.inserts <- th.Sched.metrics.Metrics.inserts + 1;
      ds.Ds.Ds_intf.insert th key
    end
    else if coin < cfg.Config.insert_pct +. cfg.Config.delete_pct then begin
      th.Sched.metrics.Metrics.deletes <- th.Sched.metrics.Metrics.deletes + 1;
      ds.Ds.Ds_intf.delete th key
    end
    else ds.Ds.Ds_intf.contains th key
  in
  Sched.atomic_exit th;
  if per_node_scaled > 0 then
    Sched.work th Metrics.Smr (result.Ds.Ds_intf.visited * per_node_scaled);
  smr.Smr.Smr_intf.end_op th;
  th.Sched.metrics.Metrics.ops <- th.Sched.metrics.Metrics.ops + 1;
  Histogram.add th.Sched.metrics.Metrics.op_hist (Sched.now th - op_start);
  Sched.checkpoint th

let run_trial ?(tracer = Tracer.disabled) (cfg : Config.t) ~seed =
  let n = cfg.Config.threads in
  let sched =
    Sched.create ~cost:cfg.Config.cost ?event_queue:cfg.Config.event_queue
      ?shards:cfg.Config.shards ?epsilon:cfg.Config.epsilon ~topology:cfg.Config.topology
      ~n_threads:n ~seed ()
  in
  (* Tracing covers the whole trial (setup, prefill, measured window); the
     profiler isolates the measured window via the Measure_start markers
     below, mirroring the metric snapshots exactly. *)
  Sched.set_tracer sched tracer;
  let alloc = Alloc.Registry.make ~config:cfg.Config.alloc_config cfg.Config.alloc sched in
  let safety = if cfg.Config.validate then Some (Smr.Safety.create ~n ()) else None in
  let base_smr, af = Smr.Smr_registry.parse cfg.Config.smr in
  let mode =
    if af then Smr.Free_policy.Amortized cfg.Config.af_drain else Smr.Free_policy.Batch
  in
  let policy = Smr.Free_policy.create ?safety ~mode ~alloc ~n () in
  let ctx = { Smr.Smr_intf.sched; alloc; policy; safety } in
  let smr =
    Smr.Smr_registry.make ~token_period:cfg.Config.token_period
      ~buffer_size:cfg.Config.buffer_size ~debra_check_every:cfg.Config.debra_check_every
      base_smr ctx
  in
  let sockets_used = Topology.sockets_used cfg.Config.topology ~n in
  let node_cost = Cost_model.node_cost cfg.Config.cost ~sockets_used in
  let ds_ctx =
    { Ds.Ds_intf.alloc; retire = smr.Smr.Smr_intf.retire; node_cost }
  in
  (* Data structure creation may allocate (the ABtree's initial leaf), so it
     must run inside the simulation: do it as a one-off setup task on thread
     0, run to completion before the workers are spawned. *)
  let ds_ref = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      ds_ref := Some (Ds.Ds_registry.make cfg.Config.ds ds_ctx th));
  Sched.run sched;
  let ds = match !ds_ref with Some ds -> ds | None -> assert false in
  let per_node_scaled =
    if smr.Smr.Smr_intf.per_node_ns = 0 then 0
    else Smr.Contention.scaled ~n smr.Smr.Smr_intf.per_node_ns
  in
  let sample = make_sampler cfg in
  (* Timelines and the garbage trace are fed by per-thread hooks. *)
  let tl_reclaim =
    if cfg.Config.timeline then Some (Timeline.create ~n ()) else None
  in
  let tl_free =
    if cfg.Config.timeline then
      Some (Timeline.create ~min_event_ns:cfg.Config.timeline_min_free_ns ~n ())
    else None
  in
  let garbage = { by_epoch = Hashtbl.create 64 } in
  Array.iter
    (fun (th : Sched.thread) ->
      let tid = th.Sched.tid in
      (* Teardown chain for churn retirements, in run order: tell the
         validator the thread is quiescent, deregister from the reclaimer
         (token handoff, slot release, bag adoption), free the AF backlog
         (no more ticks will drain it), and flush the allocator caches —
         the death flush, the RBF burst this PR measures. *)
      Sched.on_teardown th (fun th ->
          match safety with
          | Some s -> Smr.Safety.note_quiescent s ~tid:th.Sched.tid
          | None -> ());
      Sched.on_teardown th (fun th -> smr.Smr.Smr_intf.on_thread_exit th);
      Sched.on_teardown th (fun th ->
          ignore (Smr.Free_policy.drain_all policy th : int));
      Sched.on_teardown th (fun th -> alloc.Alloc.Alloc_intf.thread_exit th);
      th.Sched.hooks.Sched.on_epoch_garbage <-
        (fun ~epoch ~count -> note_garbage garbage ~epoch ~count);
      (match tl_reclaim with
      | Some tl ->
          th.Sched.hooks.Sched.on_reclaim_event <-
            (fun ~start ~stop ~count ->
              Timeline.record_event tl ~tid ~start ~stop ~value:count)
      | None -> ());
      (match tl_free with
      | Some tl ->
          th.Sched.hooks.Sched.on_free_call <-
            (fun ~start ~stop -> Timeline.record_event tl ~tid ~start ~stop ~value:1)
      | None -> ());
      th.Sched.hooks.Sched.on_epoch_advance <-
        (fun ~time ~epoch ->
          (match tl_reclaim with
          | Some tl -> Timeline.record_dot tl ~tid ~time ~value:epoch
          | None -> ());
          match tl_free with
          | Some tl -> Timeline.record_dot tl ~tid ~time ~value:epoch
          | None -> ()))
    (Sched.threads sched);
  let state = { arrived = 0; measure_start = max_int; deadline = max_int } in
  (* Per-tid churn offsets relative to the measured window; [max_int] =
     never. One retirement per tid per trial, flagged in [churned]. *)
  let retire_off, respawn_off =
    match Config.churn_schedule cfg with
    | Some (r, s) -> (r, s)
    | None -> (Array.make n max_int, Array.make n max_int)
  in
  let churned = Array.make n false in
  (* Prefill quota: [key_range / 2] successful inserts, split over threads,
     so the structure starts a trial at its steady-state size. *)
  let target = cfg.Config.key_range / 2 in
  let quota tid = (target / n) + (if tid < target mod n then 1 else 0) in
  let snaps = Array.make n None in
  let rec stint (th : Sched.thread) =
    let tid = th.Sched.tid in
    let live = ref true in
    while !live && Sched.now th < state.deadline do
      if
        snaps.(tid) = None
        && state.measure_start < max_int
        && Sched.now th >= state.measure_start
      then begin
        snaps.(tid) <- Some (Metrics.copy th.Sched.metrics);
        Tracer.instant tracer Tracer.Measure_start ~tid ~ts:(Sched.now th) ~a:0 ~b:0
      end;
      if
        (not churned.(tid))
        && retire_off.(tid) < max_int
        && state.measure_start < max_int
        && Sched.now th >= state.measure_start + retire_off.(tid)
      then begin
        churned.(tid) <- true;
        Sched.retire sched ~tid;
        if respawn_off.(tid) < max_int then begin
          (* Teardown work may already have pushed the clock past the
             planned respawn time; come back as soon as possible then. *)
          let at = max (state.measure_start + respawn_off.(tid)) (Sched.now th) in
          Sched.respawn sched ~tid ~at stint
        end;
        live := false
      end
      else do_op cfg smr ds safety per_node_scaled sample th
    done;
    if !live then
      match safety with
      | Some s -> Smr.Safety.note_quiescent s ~tid
      | None -> ()
  in
  let body (th : Sched.thread) =
    let tid = th.Sched.tid in
    (* Phase 1: prefill. *)
    let inserted = ref 0 in
    let quota = quota tid in
    while !inserted < quota do
      (match safety with
      | Some s -> Smr.Safety.note_op_begin s ~tid ~time:(Sched.now th)
      | None -> ());
      smr.Smr.Smr_intf.begin_op th;
      Sched.work th Metrics.Ds cfg.Config.cost.Cost_model.op_fixed;
      let key = Rng.int_below th.Sched.rng cfg.Config.key_range in
      Sched.atomic_enter th;
      let r = ds.Ds.Ds_intf.insert th key in
      Sched.atomic_exit th;
      if r.Ds.Ds_intf.changed then incr inserted;
      smr.Smr.Smr_intf.end_op th;
      Sched.checkpoint th
    done;
    state.arrived <- state.arrived + 1;
    if state.arrived = n then begin
      state.measure_start <- Sched.now th + cfg.Config.warmup_ns;
      state.deadline <- state.measure_start + cfg.Config.duration_ns;
      Sched.set_hard_deadline sched (state.deadline + cfg.Config.grace_ns)
    end;
    (* Phase 2: the measured workload, in stints: a stint ends at the
       deadline or at the thread's scheduled retirement, whichever comes
       first. Retirement runs the teardown chain from this coroutine (hooks
       may take locks, i.e. suspend) and, under a respawn plan, re-enters
       [stint] as the respawned body. *)
    stint th
  in
  Array.iter (fun th -> Sched.spawn sched th body) (Sched.threads sched);
  Sched.run_until sched;
  (* Close spans left open by threads abandoned mid-free at the deadline
     (their partial inclusive time is in the metrics, so the trace must
     carry it too), then record each thread's final clock. *)
  Array.iter
    (fun (th : Sched.thread) ->
      Tracer.close_open tracer ~tid:th.Sched.tid ~now:th.Sched.clock;
      Tracer.instant tracer Tracer.Thread_end ~tid:th.Sched.tid ~ts:th.Sched.clock ~a:0 ~b:0)
    (Sched.threads sched);
  (* Collect the measured window: counters after minus the snapshot. *)
  let agg = Metrics.create () in
  Array.iter
    (fun (th : Sched.thread) ->
      let before =
        match snaps.(th.Sched.tid) with Some s -> s | None -> Metrics.create ()
      in
      Metrics.merge agg (Metrics.diff ~before ~after:th.Sched.metrics))
    (Sched.threads sched);
  let duration_ns =
    if state.deadline = max_int then 1 else state.deadline - state.measure_start
  in
  let throughput = float_of_int agg.Metrics.ops /. (float_of_int duration_ns /. 1e9) in
  let table = alloc.Alloc.Alloc_intf.table in
  let garbage_by_epoch =
    Hashtbl.fold (fun e c acc -> (e, c) :: acc) garbage.by_epoch []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let peak_epoch_garbage = List.fold_left (fun m (_, c) -> max m c) 0 garbage_by_epoch in
  let avg_epoch_garbage =
    match garbage_by_epoch with
    | [] -> 0.
    | l ->
        float_of_int (List.fold_left (fun s (_, c) -> s + c) 0 l)
        /. float_of_int (List.length l)
  in
  {
    Trial.config_label = Config.label cfg;
    seed;
    throughput;
    ops = agg.Metrics.ops;
    duration_ns;
    peak_mapped_bytes = Alloc.Obj_table.mapped_bytes table;
    peak_live_bytes = Alloc.Obj_table.peak_live_bytes table;
    final_size = ds.Ds.Ds_intf.size ();
    freed = agg.Metrics.frees;
    retired = agg.Metrics.retires;
    allocs = agg.Metrics.allocs;
    epochs = agg.Metrics.epochs;
    remote_frees = agg.Metrics.remote_frees;
    flushes = agg.Metrics.flushes;
    end_garbage = smr.Smr.Smr_intf.total_garbage ();
    thread_spawns = agg.Metrics.thread_spawns;
    thread_retires = agg.Metrics.thread_retires;
    teardown_frees = agg.Metrics.teardown_frees;
    pct_free = Metrics.pct_free agg;
    pct_flush = Metrics.pct_flush agg;
    pct_lock = Metrics.pct_lock agg;
    pct_ds = Metrics.pct agg.Metrics.ds_ns agg.Metrics.total_ns;
    garbage_by_epoch;
    peak_epoch_garbage;
    avg_epoch_garbage;
    free_hist = agg.Metrics.free_call_hist;
    op_hist = agg.Metrics.op_hist;
    timeline_reclaim = tl_reclaim;
    timeline_free = tl_free;
    measure_start = state.measure_start;
    deadline = state.deadline;
    violations = (match safety with Some s -> Smr.Safety.violation_count s | None -> 0);
  }

(* Run [cfg.trials] trials with consecutive seeds, fanned out across
   domains (Pool reassembles results in seed order, so the list is
   bit-identical to a sequential run). *)
let run ?jobs (cfg : Config.t) =
  List.init cfg.Config.trials (fun i -> cfg.Config.seed + i)
  |> Pool.map ?jobs (fun seed -> run_trial cfg ~seed)
