(* The buffered reclaimer family: hazard pointers, hazard eras, interval
   based reclamation, RCU (Hart et al.'s synchronize-based variant),
   wait-free eras and neutralization based reclamation.

   All of these accumulate retired objects into a per-thread buffer and,
   when it reaches [buffer_size], perform a *reclamation pass* whose cost is
   algorithm specific (scanning every thread's hazard/era slots, or sending
   POSIX signals for NBR). Two generations are kept: a pass frees the
   previous buffer, whose objects have all survived at least one full pass
   interval — the standard two-generation structure that makes the grace
   period explicit. The paper's Experiment 2 uses a uniform buffer of 32K
   objects for all algorithms.

   What distinguishes the algorithms here is exactly what distinguishes
   them in the paper's measurements: per-operation synchronization cost
   (e.g., hazard pointer publication on every traversed node), reclamation
   pass cost, and the batch-free behaviour that the amortized free policy
   repairs. *)

open Simcore

type spec = {
  name : string;
  buffer_size : int;
  per_node_ns : int;  (* contention-scaled by the runtime, per node visited *)
  op_cost_contended : int;  (* per-op announcement cost, contention-scaled *)
  op_cost_plain : int;  (* per-op cost not subject to contention scaling *)
  slots_per_pass : n:int -> int;  (* announcement slots read per pass *)
  signals_per_pass : n:int -> int;  (* signals delivered per pass (NBR) *)
  uses_grace_periods : bool;
}

type thread_state = { mutable cur : Vec.t; mutable prev : Vec.t }

type t = { ctx : Smr_intf.ctx; spec : spec; states : thread_state array }

let reclamation_pass t (th : Sched.thread) st =
  let n = Sched.n_threads t.ctx.Smr_intf.sched in
  let cost = Sched.cost t.ctx.Smr_intf.sched in
  (* Pay for the pass: slot scans and signals, charged per-slot/per-signal
     in one O(1) step. *)
  let slots = t.spec.slots_per_pass ~n in
  Sched.work_n th Metrics.Smr ~per:cost.Cost_model.read_slot ~count:slots;
  let signals = t.spec.signals_per_pass ~n in
  Sched.work_n th Metrics.Smr ~per:cost.Cost_model.signal ~count:signals;
  th.Sched.metrics.Metrics.epochs <- th.Sched.metrics.Metrics.epochs + 1;
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then begin
     Tracer.instant tr Tracer.Epoch_advance ~tid:th.Sched.tid ~ts:(Sched.now th)
       ~a:th.Sched.metrics.Metrics.epochs ~b:0;
     Tracer.instant tr Tracer.Epoch_garbage ~tid:th.Sched.tid ~ts:(Sched.now th)
       ~a:(Vec.length st.cur + Vec.length st.prev)
       ~b:th.Sched.metrics.Metrics.epochs
   end);
  th.Sched.hooks.Sched.on_epoch_advance ~time:(Sched.now th)
    ~epoch:th.Sched.metrics.Metrics.epochs;
  th.Sched.hooks.Sched.on_epoch_garbage ~epoch:th.Sched.metrics.Metrics.epochs
    ~count:(Vec.length st.cur + Vec.length st.prev);
  (* Free the previous generation; the current one becomes previous. *)
  let stash = st.prev in
  st.prev <- st.cur;
  st.cur <- stash;
  Free_policy.dispose t.ctx.Smr_intf.policy th stash

let begin_op t (th : Sched.thread) =
  Free_policy.tick t.ctx.Smr_intf.policy th;
  if t.spec.op_cost_contended > 0 then Contention.announce t.ctx th t.spec.op_cost_contended;
  if t.spec.op_cost_plain > 0 then Contention.charge th t.spec.op_cost_plain

let retire t (th : Sched.thread) h =
  let st = t.states.(th.Sched.tid) in
  Contention.charge th (Sched.cost t.ctx.Smr_intf.sched).Cost_model.retire;
  (match t.ctx.Smr_intf.safety with
  | Some s -> Safety.note_retire s ~handle:h ~time:(Sched.now th)
  | None -> ());
  Vec.push st.cur h;
  th.Sched.metrics.Metrics.retires <- th.Sched.metrics.Metrics.retires + 1;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Retire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:h ~b:0

(* The pass runs at operation end rather than inside [retire], so the batch
   free happens outside the data structure operation (retire is called
   mid-update). *)
let end_op t (th : Sched.thread) =
  let st = t.states.(th.Sched.tid) in
  if Vec.length st.cur >= t.spec.buffer_size then reclamation_pass t th st

(* Deregistration: both generations of the dying thread's buffer are
   adopted into the next live thread's *current* generation — they restart
   the two-pass wait from scratch, which is conservative but safe for every
   member of the family. With no live successor they stay parked under the
   dead tid, still counted by [garbage_of]. *)
let on_thread_exit t (th : Sched.thread) =
  let sched = t.ctx.Smr_intf.sched in
  let n = Sched.n_threads sched in
  let tid = th.Sched.tid in
  let st = t.states.(tid) in
  let next_live =
    let rec go k remaining =
      if remaining = 0 then -1
      else
        let next = (k + 1) mod n in
        if (Sched.thread sched next).Sched.alive then next else go next (remaining - 1)
    in
    go tid (n - 1)
  in
  if next_live >= 0 && Vec.length st.cur + Vec.length st.prev > 0 then begin
    let dst = t.states.(next_live) in
    Sched.work th Metrics.Smr t.ctx.Smr_intf.policy.Free_policy.splice_cost;
    Vec.append dst.cur st.cur;
    Vec.append dst.cur st.prev;
    Vec.clear st.cur;
    Vec.clear st.prev
  end

let make spec (ctx : Smr_intf.ctx) =
  let n = Sched.n_threads ctx.Smr_intf.sched in
  let t =
    { ctx; spec; states = Array.init n (fun _ -> { cur = Vec.create (); prev = Vec.create () }) }
  in
  let garbage_of tid =
    let st = t.states.(tid) in
    Vec.length st.cur + Vec.length st.prev + Free_policy.pending ctx.Smr_intf.policy tid
  in
  {
    Smr_intf.name = spec.name;
    begin_op = begin_op t;
    end_op = end_op t;
    retire = retire t;
    on_thread_exit = on_thread_exit t;
    per_node_ns = spec.per_node_ns;
    uses_grace_periods = spec.uses_grace_periods;
    garbage_of;
    total_garbage =
      (fun () ->
        let sum = ref 0 in
        for tid = 0 to n - 1 do
          sum := !sum + garbage_of tid
        done;
        !sum);
  }

let no_signals ~n:_ = 0

(* Hazard pointers (Michael): publish a hazard pointer — with its full
   memory fence — for every node visited; a pass scans every thread's
   hazard slots. *)
let hp ?(buffer_size = 384) ctx =
  make
    {
      name = "hp";
      buffer_size;
      per_node_ns = 75;
      op_cost_contended = 0;
      op_cost_plain = 10;  (* clearing hazard slots at op end *)
      slots_per_pass = (fun ~n -> 3 * n);
      signals_per_pass = no_signals;
      uses_grace_periods = false;
    }
    ctx

(* Hazard eras (Ramalhete & Correia): era publication per node read is
   cheaper than a hazard pointer only when the era has not changed, but the
   publication still fences. *)
let he ?(buffer_size = 384) ctx =
  make
    {
      name = "he";
      buffer_size;
      per_node_ns = 60;
      op_cost_contended = 10;  (* era announcement on op entry *)
      op_cost_plain = 6;
      slots_per_pass = (fun ~n -> 3 * n);
      signals_per_pass = no_signals;
      uses_grace_periods = false;
    }
    ctx

(* Wait-free eras (Nikolaev & Ravindran): hazard-era-like costs plus
   helping machinery on the hot path. *)
let wfe ?(buffer_size = 384) ctx =
  make
    {
      name = "wfe";
      buffer_size;
      per_node_ns = 60;
      op_cost_contended = 26;  (* helping CASes *)
      op_cost_plain = 8;
      slots_per_pass = (fun ~n -> 4 * n);
      signals_per_pass = no_signals;
      uses_grace_periods = false;
    }
    ctx

(* Interval based reclamation (2GE-IBR, Wen et al.): two era announcements
   per operation, cheap per-node era bookkeeping, pass scans reservations. *)
let ibr ?(buffer_size = 384) ctx =
  make
    {
      name = "ibr";
      buffer_size;
      per_node_ns = 2;
      op_cost_contended = 12;
      op_cost_plain = 0;
      slots_per_pass = (fun ~n -> n);
      signals_per_pass = no_signals;
      uses_grace_periods = true;
    }
    ctx

(* RCU in the style of Hart et al.: reader lock/unlock announcements per
   operation; a pass waits for all readers by scanning their states. *)
let rcu ?(buffer_size = 384) ctx =
  make
    {
      name = "rcu";
      buffer_size;
      per_node_ns = 0;
      op_cost_contended = 12;  (* rcu_read_lock/unlock publication *)
      op_cost_plain = 4;
      slots_per_pass = (fun ~n -> n);
      signals_per_pass = no_signals;
      uses_grace_periods = true;
    }
    ctx

(* Neutralization based reclamation (Singh et al.): negligible per-op cost;
   a pass interrupts every thread with a signal. *)
let nbr ?(buffer_size = 384) ctx =
  make
    {
      name = "nbr";
      buffer_size;
      per_node_ns = 0;
      op_cost_plain = 14;  (* sigsetjmp-style checkpointing *)
      op_cost_contended = 0;
      slots_per_pass = (fun ~n -> n);
      signals_per_pass = (fun ~n -> n);
      uses_grace_periods = false;
    }
    ctx

(* Hyaline (Nikolaev & Ravindran, related work): reference-counted batches
   handed off between threads; cheap per-op counters, no global scans, but
   per-batch handoff CASes that contend like the announcement slots. *)
let hyaline ?(buffer_size = 384) ctx =
  make
    {
      name = "hyaline";
      buffer_size;
      per_node_ns = 0;
      op_cost_contended = 18;  (* enter/leave reference counting *)
      op_cost_plain = 6;
      slots_per_pass = (fun ~n -> n / 2);
      signals_per_pass = no_signals;
      uses_grace_periods = false;
    }
    ctx

(* NBR+: publishes reservations so most passes avoid signalling. *)
let nbr_plus ?(buffer_size = 384) ctx =
  make
    {
      name = "nbr+";
      buffer_size;
      per_node_ns = 0;
      op_cost_plain = 14;
      op_cost_contended = 2;
      slots_per_pass = (fun ~n -> 2 * n);
      signals_per_pass = (fun ~n -> max 1 (n / 16));
      uses_grace_periods = false;
    }
    ctx
