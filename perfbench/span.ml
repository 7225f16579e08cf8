(* The span run: the trial stack of [Runtime.Runner.run_trial], rebuilt
   from the public constructors, with each layer's record of closures
   wrapped in host-clock crossings.

   Crossings are the entries and exits of the wrapped closures (allocator
   malloc/free/thread_exit, reclaimer begin_op/end_op/retire/
   on_thread_exit plus the free policy's teardown drain, data-structure
   insert/delete/contains), the return of the runner's own
   [Sched.checkpoint], and every checkpoint anywhere (a schedule controller
   that always answers 0, so the schedule is unchanged). Each simulated
   thread keeps a stack of the layers it is inside; the host time between
   two consecutive crossings is charged to exactly one layer:
   - the crossing thread's innermost layer, when the same thread made the
     previous crossing and did not yield since;
   - [sched], when the previous crossing was made by another thread or the
     thread yielded at a checkpoint in between. This interval covers the
     dispatch loop and the resumed thread's work up to its next crossing,
     so lock-wait resumptions inside a layer charge that layer's work
     after the wakeup to [sched];
   - [driver] for host time outside the scheduler (stack construction and
     result collection).
   The self times therefore sum to the span between the first and the
   last crossing; [wall_ns] is read separately around the whole trial, so
   the two reconcile only when no interval is lost or counted twice. *)

open Simcore

module Layer = struct
  let driver = 0
  let sched = 1
  let ds = 2
  let smr = 3
  let alloc = 4
  let count = 5
  let names = [ "driver"; "sched"; "ds"; "smr"; "alloc" ]
end
let max_depth = 8

(* Pseudo-tid for host time outside [Sched.run]. *)
let outside = -1

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

type clock = {
  self_ns : int array;
  calls : int array;
  stack : int array;  (* [tid * max_depth + depth]; slot 0 is [driver] *)
  depth : int array;
  mutable last : int;
  mutable cur : int;  (* tid of the previous crossing *)
  mutable marked : bool;  (* the previous crossing was a checkpoint *)
  mutable mark_yields : int;
  mutable nodes : int;  (* data-structure nodes visited *)
}

let create_clock ~n =
  {
    self_ns = Array.make Layer.count 0;
    calls = Array.make Layer.count 0;
    stack = Array.make (n * max_depth) Layer.driver;
    depth = Array.make n 1;
    last = now_ns ();
    cur = outside;
    marked = false;
    mark_yields = 0;
    nodes = 0;
  }

let charge c tid ~yields =
  let t = now_ns () in
  let layer =
    if c.cur <> tid then Layer.sched
    else if tid = outside then Layer.driver
    else if c.marked && yields <> c.mark_yields then Layer.sched
    else c.stack.((tid * max_depth) + c.depth.(tid) - 1)
  in
  c.self_ns.(layer) <- c.self_ns.(layer) + (t - c.last);
  c.last <- t;
  c.cur <- tid;
  c.marked <- false

let[@inline] cross c (th : Sched.thread) =
  charge c th.Sched.tid ~yields:th.Sched.metrics.Metrics.yields

let enter c (th : Sched.thread) layer =
  cross c th;
  let tid = th.Sched.tid in
  let d = c.depth.(tid) in
  if d >= max_depth then failwith "Span.enter: layer stack overflow";
  c.stack.((tid * max_depth) + d) <- layer;
  c.depth.(tid) <- d + 1;
  c.calls.(layer) <- c.calls.(layer) + 1

let leave c (th : Sched.thread) =
  cross c th;
  let tid = th.Sched.tid in
  c.depth.(tid) <- c.depth.(tid) - 1

(* The schedule controller: every checkpoint is a crossing into [sched]. *)
let checkpoint_mark c (th : Sched.thread) =
  cross c th;
  c.marked <- true;
  c.mark_yields <- th.Sched.metrics.Metrics.yields;
  c.calls.(Layer.sched) <- c.calls.(Layer.sched) + 1;
  0

let outside_cross c = charge c outside ~yields:0

let wrap_alloc c (a : Alloc.Alloc_intf.t) =
  {
    a with
    Alloc.Alloc_intf.malloc =
      (fun th size ->
        enter c th Layer.alloc;
        let h = a.Alloc.Alloc_intf.malloc th size in
        leave c th;
        h);
    free =
      (fun th h ->
        enter c th Layer.alloc;
        a.Alloc.Alloc_intf.free th h;
        leave c th);
    thread_exit =
      (fun th ->
        enter c th Layer.alloc;
        a.Alloc.Alloc_intf.thread_exit th;
        leave c th);
  }

let wrap_smr c (s : Smr.Smr_intf.t) =
  let bracket f th =
    enter c th Layer.smr;
    f th;
    leave c th
  in
  {
    s with
    Smr.Smr_intf.begin_op = bracket s.Smr.Smr_intf.begin_op;
    end_op = bracket s.Smr.Smr_intf.end_op;
    on_thread_exit = bracket s.Smr.Smr_intf.on_thread_exit;
    retire =
      (fun th h ->
        enter c th Layer.smr;
        s.Smr.Smr_intf.retire th h;
        leave c th);
  }

let wrap_ds c (d : Ds.Ds_intf.t) =
  let op f th key =
    enter c th Layer.ds;
    let r = f th key in
    c.nodes <- c.nodes + r.Ds.Ds_intf.visited;
    leave c th;
    r
  in
  {
    d with
    Ds.Ds_intf.insert = op d.Ds.Ds_intf.insert;
    delete = op d.Ds.Ds_intf.delete;
    contains = op d.Ds.Ds_intf.contains;
  }

(* What one span trial measured, summed over threads for the counts. *)
type result = {
  trial : Runtime.Trial.t;
  wall_ns : int;
  self_ns : int array;
  calls : int array;
  nodes : int;
  yields : int;
  elided_yields : int;
  frees : int;
  flushes : int;
  remote_frees : int;
  epochs : int;
  retires : int;
  hp_scans : int;
}

(* --- the trial, mirroring Runtime.Runner.run_trial step for step --- *)

type shared_state = {
  mutable arrived : int;
  mutable measure_start : int;
  mutable deadline : int;
}

let make_sampler (cfg : Runtime.Config.t) =
  match cfg.Runtime.Config.key_dist with
  | Runtime.Config.Uniform ->
      fun (th : Sched.thread) -> Rng.int_below th.Sched.rng cfg.Runtime.Config.key_range
  | Runtime.Config.Zipf theta ->
      let n = cfg.Runtime.Config.key_range in
      let table = Runtime.Sampler.get ~key_range:n ~theta in
      let scatter r = r * 2654435761 land max_int mod n in
      fun (th : Sched.thread) -> scatter (Runtime.Sampler.sample table th.Sched.rng)

let do_op c (cfg : Runtime.Config.t) (smr : Smr.Smr_intf.t) (ds : Ds.Ds_intf.t) safety
    per_node_scaled sample (th : Sched.thread) =
  let op_start = Sched.now th in
  (match safety with
  | Some s -> Smr.Safety.note_op_begin s ~tid:th.Sched.tid ~time:(Sched.now th)
  | None -> ());
  smr.Smr.Smr_intf.begin_op th;
  Sched.work th Metrics.Ds cfg.Runtime.Config.cost.Cost_model.op_fixed;
  let key = sample th in
  let coin = Rng.float th.Sched.rng in
  Sched.atomic_enter th;
  let result =
    if coin < cfg.Runtime.Config.insert_pct then begin
      th.Sched.metrics.Metrics.inserts <- th.Sched.metrics.Metrics.inserts + 1;
      ds.Ds.Ds_intf.insert th key
    end
    else if coin < cfg.Runtime.Config.insert_pct +. cfg.Runtime.Config.delete_pct then begin
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
  Sched.checkpoint th;
  cross c th

let trial_body c ~tracer (cfg : Runtime.Config.t) ~seed =
  let module C = Runtime.Config in
  if cfg.C.timeline then invalid_arg "Span.run: timeline configs are not supported";
  let n = cfg.C.threads in
  let sched =
    Sched.create ~cost:cfg.C.cost ?event_queue:cfg.C.event_queue ?shards:cfg.C.shards
      ?epsilon:cfg.C.epsilon ~topology:cfg.C.topology ~n_threads:n ~seed ()
  in
  Sched.set_tracer sched tracer;
  Sched.set_controller sched (Some (checkpoint_mark c));
  let alloc = wrap_alloc c (Alloc.Registry.make ~config:cfg.C.alloc_config cfg.C.alloc sched) in
  let safety =
    if cfg.C.validate then Some (Smr.Safety.create ~slack:(Sched.epsilon sched) ~n ()) else None
  in
  let base_smr, af = Smr.Smr_registry.parse cfg.C.smr in
  let mode = if af then Smr.Free_policy.Amortized cfg.C.af_drain else Smr.Free_policy.Batch in
  let policy = Smr.Free_policy.create ?safety ~mode ~alloc ~n () in
  let ctx = { Smr.Smr_intf.sched; alloc; policy; safety } in
  let smr =
    wrap_smr c
      (Smr.Smr_registry.make ~token_period:cfg.C.token_period ~buffer_size:cfg.C.buffer_size
         ~debra_check_every:cfg.C.debra_check_every base_smr ctx)
  in
  let sockets_used = Topology.sockets_used cfg.C.topology ~n in
  let node_cost = Cost_model.node_cost cfg.C.cost ~sockets_used in
  let ds_ctx = { Ds.Ds_intf.alloc; retire = smr.Smr.Smr_intf.retire; node_cost } in
  let ds_ref = ref None in
  Sched.spawn sched (Sched.thread sched 0) (fun th ->
      ds_ref := Some (wrap_ds c (Ds.Ds_registry.make cfg.C.ds ds_ctx th)));
  outside_cross c;
  Sched.run sched;
  outside_cross c;
  let ds = match !ds_ref with Some ds -> ds | None -> assert false in
  let per_node_scaled =
    if smr.Smr.Smr_intf.per_node_ns = 0 then 0
    else Smr.Contention.scaled ~n smr.Smr.Smr_intf.per_node_ns
  in
  let sample = make_sampler cfg in
  let garbage = Hashtbl.create 64 in
  Array.iter
    (fun (th : Sched.thread) ->
      Sched.on_teardown th (fun th ->
          match safety with
          | Some s -> Smr.Safety.note_quiescent s ~tid:th.Sched.tid
          | None -> ());
      Sched.on_teardown th (fun th -> smr.Smr.Smr_intf.on_thread_exit th);
      Sched.on_teardown th (fun th ->
          enter c th Layer.smr;
          ignore (Smr.Free_policy.drain_all policy th : int);
          leave c th);
      Sched.on_teardown th (fun th -> alloc.Alloc.Alloc_intf.thread_exit th);
      th.Sched.hooks.Sched.on_epoch_garbage <-
        (fun ~epoch ~count ->
          Hashtbl.replace garbage epoch
            (count + Option.value ~default:0 (Hashtbl.find_opt garbage epoch))))
    (Sched.threads sched);
  let state = { arrived = 0; measure_start = max_int; deadline = max_int } in
  let retire_off, respawn_off =
    match C.churn_schedule cfg with
    | Some (r, s) -> (r, s)
    | None -> (Array.make n max_int, Array.make n max_int)
  in
  let churned = Array.make n false in
  let target = cfg.C.key_range / 2 in
  let quota tid = (target / n) + if tid < target mod n then 1 else 0 in
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
          let at = max (state.measure_start + respawn_off.(tid)) (Sched.now th) in
          Sched.respawn sched ~tid ~at stint
        end;
        live := false
      end
      else do_op c cfg smr ds safety per_node_scaled sample th
    done;
    if !live then
      match safety with Some s -> Smr.Safety.note_quiescent s ~tid | None -> ()
  in
  let body (th : Sched.thread) =
    let tid = th.Sched.tid in
    let inserted = ref 0 in
    let quota = quota tid in
    while !inserted < quota do
      (match safety with
      | Some s -> Smr.Safety.note_op_begin s ~tid ~time:(Sched.now th)
      | None -> ());
      smr.Smr.Smr_intf.begin_op th;
      Sched.work th Metrics.Ds cfg.C.cost.Cost_model.op_fixed;
      let key = Rng.int_below th.Sched.rng cfg.C.key_range in
      Sched.atomic_enter th;
      let r = ds.Ds.Ds_intf.insert th key in
      Sched.atomic_exit th;
      if r.Ds.Ds_intf.changed then incr inserted;
      smr.Smr.Smr_intf.end_op th;
      Sched.checkpoint th;
      cross c th
    done;
    state.arrived <- state.arrived + 1;
    if state.arrived = n then begin
      state.measure_start <- Sched.now th + cfg.C.warmup_ns;
      state.deadline <- state.measure_start + cfg.C.duration_ns;
      Sched.set_hard_deadline sched (state.deadline + cfg.C.grace_ns)
    end;
    stint th
  in
  Array.iter (fun th -> Sched.spawn sched th body) (Sched.threads sched);
  outside_cross c;
  Sched.run_until sched;
  outside_cross c;
  Array.iter
    (fun (th : Sched.thread) ->
      Tracer.close_open tracer ~tid:th.Sched.tid ~now:th.Sched.clock;
      Tracer.instant tracer Tracer.Thread_end ~tid:th.Sched.tid ~ts:th.Sched.clock ~a:0 ~b:0)
    (Sched.threads sched);
  let agg = Metrics.create () in
  let whole = Metrics.create () in
  Array.iter
    (fun (th : Sched.thread) ->
      let before =
        match snaps.(th.Sched.tid) with Some s -> s | None -> Metrics.create ()
      in
      Metrics.merge agg (Metrics.diff ~before ~after:th.Sched.metrics);
      Metrics.merge whole th.Sched.metrics)
    (Sched.threads sched);
  let duration_ns =
    if state.deadline = max_int then 1 else state.deadline - state.measure_start
  in
  let throughput = float_of_int agg.Metrics.ops /. (float_of_int duration_ns /. 1e9) in
  let table = alloc.Alloc.Alloc_intf.table in
  let garbage_by_epoch =
    Hashtbl.fold (fun e c acc -> (e, c) :: acc) garbage []
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
  let trial =
    {
      Runtime.Trial.config_label = C.label cfg;
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
      timeline_reclaim = None;
      timeline_free = None;
      measure_start = state.measure_start;
      deadline = state.deadline;
      violations = (match safety with Some s -> Smr.Safety.violation_count s | None -> 0);
    }
  in
  (trial, whole)

(* One span trial. Counts cover the whole trial (prefill included), like
   the host time they sit beside. *)
let run ?(tracer = Tracer.disabled) (cfg : Runtime.Config.t) ~seed =
  let t0 = now_ns () in
  let c = create_clock ~n:cfg.Runtime.Config.threads in
  let trial, m = trial_body c ~tracer cfg ~seed in
  outside_cross c;
  let wall_ns = now_ns () - t0 in
  {
    trial;
    wall_ns;
    self_ns = c.self_ns;
    calls = c.calls;
    nodes = c.nodes;
    yields = m.Metrics.yields;
    elided_yields = m.Metrics.elided_yields;
    frees = m.Metrics.frees;
    flushes = m.Metrics.flushes;
    remote_frees = m.Metrics.remote_frees;
    epochs = m.Metrics.epochs;
    retires = m.Metrics.retires;
    hp_scans = m.Metrics.hp_scans;
  }
