(* Epoch based reclamation with rotating limbo bags — the family containing
   DEBRA and quiescent-state based reclamation.

   There is a global epoch and a single-writer multi-reader announcement
   array. A thread announces the epoch it is in at the start of each
   operation. Once every [check_every] operations it reads *one* other
   thread's announcement (round-robin); the first thread to observe that all
   threads have announced the current epoch advances it. Objects retired in
   epoch e become safe when the global epoch reaches e+2, at which point the
   thread's limbo bag for e is handed to the free policy (batch free in the
   original algorithms, splice-and-drain under AF). *)

open Simcore

(* Objects retired in epoch e are freed when the thread enters epoch e+2. *)
let bags_per_thread = 3

type thread_state = {
  mutable announced : int;
  mutable scan_idx : int;  (* next announcement slot to check *)
  mutable ops_since_check : int;
  bags : Vec.t array;
  bag_epoch : int array;  (* epoch tag of each bag; -1 = empty/unused *)
  mutable cur : int;  (* index of the bag collecting current-epoch garbage *)
}

type t = {
  ctx : Smr_intf.ctx;
  check_every : int;
  announce_every_op : bool;  (* QSBR announces quiescence every op *)
  mutable epoch : int;
  announce : int array;
  states : thread_state array;
}

let epoch_read_cost = 4

let enter_epoch t st (th : Sched.thread) e =
  (* Report garbage held on epoch entry (paper Fig 4). *)
  let held = Array.fold_left (fun acc b -> acc + Vec.length b) 0 st.bags in
  th.Sched.hooks.Sched.on_epoch_garbage ~epoch:e ~count:held;
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then
     Tracer.instant tr Tracer.Epoch_garbage ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:held ~b:e);
  st.announced <- e;
  Contention.charge th (Sched.cost t.ctx.Smr_intf.sched).Cost_model.announce;
  (* Dispose every bag three or more epochs old, then pick a bag for e.
     Three, not two: a bag tagged with the thread's *local* epoch may hold
     objects retired while the global epoch was already one ahead, so the
     classic 3-bag rotation frees the bag from e-3 when entering e. *)
  for i = 0 to bags_per_thread - 1 do
    if st.bag_epoch.(i) >= 0 && st.bag_epoch.(i) <= e - 3 then begin
      Free_policy.dispose t.ctx.Smr_intf.policy th st.bags.(i);
      st.bag_epoch.(i) <- -1
    end
  done;
  let free_bag = ref (-1) in
  for i = 0 to bags_per_thread - 1 do
    if st.bag_epoch.(i) = -1 && !free_bag = -1 then free_bag := i
  done;
  if !free_bag < 0 then
    failwith
      (Printf.sprintf
         "Epoch_based.enter_epoch: invariant violated: no free limbo bag entering epoch %d \
          (tid %d, bag_epoch = [%d; %d; %d]) — the %d-bag rotation must always leave one \
          free after disposing bags <= e-3"
         e th.Sched.tid st.bag_epoch.(0) st.bag_epoch.(1) st.bag_epoch.(2) bags_per_thread);
  st.bag_epoch.(!free_bag) <- e;
  st.cur <- !free_bag;
  (* Restart the announcement scan: observations made for the previous
     epoch must not count toward advancing the new one. *)
  st.scan_idx <- (th.Sched.tid + 1) mod Sched.n_threads t.ctx.Smr_intf.sched

let try_advance t st (th : Sched.thread) e =
  let n = Sched.n_threads t.ctx.Smr_intf.sched in
  let cost = Sched.cost t.ctx.Smr_intf.sched in
  Sched.work th Metrics.Smr cost.Cost_model.read_slot;
  (* A dead thread cannot announce; its slot must not block the epoch
     forever. The alive check sits *after* the announcement compare, so a
     fully live population never reads the flag and pays exactly the
     pre-churn cost. *)
  if
    t.announce.(st.scan_idx) = e
    || not (Sched.thread t.ctx.Smr_intf.sched st.scan_idx).Sched.alive
  then begin
    (* [scan_idx] is always in [0, n): wrap with a compare, not an idiv —
       this runs every [check_every] ops on every thread. *)
    let i = st.scan_idx + 1 in
    st.scan_idx <- (if i = n then 0 else i);
    if st.scan_idx = th.Sched.tid then begin
      (* Seen every other thread (and ourselves) in epoch e: advance. *)
      if t.epoch = e then begin
        t.epoch <- e + 1;
        Contention.charge th cost.Cost_model.announce;
        th.Sched.metrics.Metrics.epochs <- th.Sched.metrics.Metrics.epochs + 1;
        (let tr = Sched.tracer th.Sched.sched in
         if Tracer.enabled tr then
           Tracer.instant tr Tracer.Epoch_advance ~tid:th.Sched.tid ~ts:(Sched.now th)
             ~a:(e + 1) ~b:0);
        th.Sched.hooks.Sched.on_epoch_advance ~time:(Sched.now th) ~epoch:(e + 1)
      end;
      st.scan_idx <- (th.Sched.tid + 1) mod n
    end
  end

let begin_op t (th : Sched.thread) =
  Free_policy.tick t.ctx.Smr_intf.policy th;
  let st = t.states.(th.Sched.tid) in
  Contention.charge th epoch_read_cost;
  let e = t.epoch in
  if e <> st.announced then enter_epoch t st th e
  else if t.announce_every_op then
    Contention.charge th (Sched.cost t.ctx.Smr_intf.sched).Cost_model.announce;
  st.ops_since_check <- st.ops_since_check + 1;
  if st.ops_since_check >= t.check_every then begin
    st.ops_since_check <- 0;
    try_advance t st th e
  end

let retire t (th : Sched.thread) h =
  let st = t.states.(th.Sched.tid) in
  Contention.charge th (Sched.cost t.ctx.Smr_intf.sched).Cost_model.retire;
  (match t.ctx.Smr_intf.safety with
  | Some s -> Safety.note_retire s ~handle:h ~time:(Sched.now th)
  | None -> ());
  Vec.push st.bags.(st.cur) h;
  th.Sched.metrics.Metrics.retires <- th.Sched.metrics.Metrics.retires + 1;
  let tr = Sched.tracer th.Sched.sched in
  if Tracer.enabled tr then
    Tracer.instant tr Tracer.Retire ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:h ~b:0

(* Deregistration: the dying thread's limbo bags have not finished their
   grace period, so they are adopted into the next live thread's *current*
   bag — picking up that bag's (younger) epoch tag, i.e. conservatively
   restarting the wait. The announcement slot needs no write: [try_advance]
   skips dead threads. With no live successor the bags stay parked under
   the dead tid, still counted by [garbage_of]. *)
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
  if next_live >= 0 then begin
    let dst = t.states.(next_live) in
    let moved = ref 0 in
    for i = 0 to bags_per_thread - 1 do
      if Vec.length st.bags.(i) > 0 then begin
        moved := !moved + Vec.length st.bags.(i);
        Vec.append dst.bags.(dst.cur) st.bags.(i);
        Vec.clear st.bags.(i)
      end;
      st.bag_epoch.(i) <- -1
    done;
    st.bag_epoch.(st.cur) <- st.announced;
    if !moved > 0 then
      Sched.work th Metrics.Smr t.ctx.Smr_intf.policy.Free_policy.splice_cost
  end

let make ~name ~check_every ~announce_every_op (ctx : Smr_intf.ctx) =
  let n = Sched.n_threads ctx.Smr_intf.sched in
  let t =
    {
      ctx;
      check_every;
      announce_every_op;
      epoch = 0;
      announce = Array.make n 0;
      states =
        Array.init n (fun tid ->
            let st =
              {
                announced = 0;
                scan_idx = (tid + 1) mod n;
                ops_since_check = 0;
                bags = Array.init bags_per_thread (fun _ -> Vec.create ());
                bag_epoch = Array.make bags_per_thread (-1);
                cur = 0;
              }
            in
            st.bag_epoch.(0) <- 0;
            st);
    }
  in
  (* Keep the announcement array in sync with announcements. *)
  let begin_op th =
    begin_op t th;
    t.announce.(th.Sched.tid) <- t.states.(th.Sched.tid).announced
  in
  let garbage_of tid =
    Array.fold_left (fun acc b -> acc + Vec.length b) 0 t.states.(tid).bags
    + Free_policy.pending ctx.Smr_intf.policy tid
  in
  {
    Smr_intf.name;
    begin_op;
    end_op = (fun _ -> ());
    retire = retire t;
    on_thread_exit = on_thread_exit t;
    per_node_ns = 0;
    uses_grace_periods = true;
    garbage_of;
    total_garbage =
      (fun () ->
        let sum = ref 0 in
        for tid = 0 to n - 1 do
          sum := !sum + garbage_of tid
        done;
        !sum);
  }

(* DEBRA: announce only on epoch change, scan one slot every few ops. *)
let debra ?(check_every = 3) ctx = make ~name:"debra" ~check_every ~announce_every_op:false ctx

(* Quiescent state based reclamation: announce quiescence on every operation
   and check a slot on every operation. *)
let qsbr ctx = make ~name:"qsbr" ~check_every:1 ~announce_every_op:true ctx
