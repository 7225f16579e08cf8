(* Token-EBR (paper §4): threads are arranged in a ring and a token is
   passed around it; receiving the token means every thread has started a
   new operation since the last receipt, so everything in the previous limbo
   bag is safe to free.

   The three variants reproduce the paper's development:
   - [Naive]: free the previous bag *before* passing the token — frees are
     fully serialized around the ring and garbage piles up catastrophically
     (Fig 6);
   - [Pass_first]: pass the token, then free — frees overlap, but a thread
     stuck in a long batch free sits on a re-received token (Fig 7);
   - [Periodic k]: while freeing, check every k free calls whether the token
     has come back, and pass it along if so (Fig 8). A single high-latency
     free call still cannot be interrupted — the remaining pile-up the paper
     uses to motivate amortized freeing.

   The paper's final algorithm, token_af, is [Periodic k] combined with the
   amortized free policy: dispose becomes an O(1) splice and the freeable
   list drains one object per operation, so the token circulates freely. *)

open Simcore

type variant = Naive | Pass_first | Periodic of int

let variant_name = function
  | Naive -> "token-naive"
  | Pass_first -> "token-passfirst"
  | Periodic _ -> "token"

type thread_state = {
  mutable cur : Vec.t;
  mutable prev : Vec.t;
  mutable receipts : int;
}

type t = {
  ctx : Smr_intf.ctx;
  variant : variant;
  mutable holder : int;  (* tid currently holding the token *)
  mutable rounds : int;  (* completed trips around the ring *)
  states : thread_state array;
}

let token_check_cost = 4
let token_pass_cost = 20  (* shared cache line handoff to the next thread *)

(* Hand the token to the next *live* thread on the ring. With a static
   population this is the plain [(tid + 1) mod n] hop; under churn, dead
   tids are skipped (they can no longer pass it on). If every other thread
   is dead the token parks at [-1] and the next [begin_op] — or the next
   respawn — re-adopts it, so the ring never deadlocks on an empty seat. *)
let pass_token t (th : Sched.thread) =
  let sched = t.ctx.Smr_intf.sched in
  let n = Sched.n_threads sched in
  Contention.charge th token_pass_cost;
  let rec go k remaining =
    let next = (k + 1) mod n in
    if next = 0 then t.rounds <- t.rounds + 1;
    if (Sched.thread sched next).Sched.alive then t.holder <- next
    else if remaining = 0 then t.holder <- -1
    else go next (remaining - 1)
  in
  go th.Sched.tid (n - 1)

(* Free the previous bag, checking for the token every [k] free calls and
   passing it along if it has come back (Periodic variant). *)
let free_bag_periodic t (th : Sched.thread) bag k =
  let start = Sched.now th in
  let count = Vec.length bag in
  let i = ref 0 in
  Vec.iter
    (fun h ->
      Free_policy.free_one t.ctx.Smr_intf.policy th h;
      incr i;
      if !i mod k = 0 then begin
        Contention.charge th token_check_cost;
        if t.holder = th.Sched.tid then pass_token t th
      end)
    bag;
  Vec.clear bag;
  if count > 0 then begin
    let stop = Sched.now th in
    (let tr = Sched.tracer th.Sched.sched in
     if Tracer.enabled tr then
       Tracer.span tr Tracer.Reclaim ~tid:th.Sched.tid ~ts:start ~dur:(stop - start) ~a:count
         ~b:0);
    th.Sched.hooks.Sched.on_reclaim_event ~start ~stop ~count
  end

let on_token t st (th : Sched.thread) =
  st.receipts <- st.receipts + 1;
  th.Sched.metrics.Metrics.epochs <- th.Sched.metrics.Metrics.epochs + 1;
  (let tr = Sched.tracer th.Sched.sched in
   if Tracer.enabled tr then begin
     Tracer.instant tr Tracer.Epoch_advance ~tid:th.Sched.tid ~ts:(Sched.now th) ~a:t.rounds
       ~b:0;
     Tracer.instant tr Tracer.Epoch_garbage ~tid:th.Sched.tid ~ts:(Sched.now th)
       ~a:(Vec.length st.cur + Vec.length st.prev)
       ~b:t.rounds
   end);
  th.Sched.hooks.Sched.on_epoch_advance ~time:(Sched.now th) ~epoch:t.rounds;
  th.Sched.hooks.Sched.on_epoch_garbage ~epoch:t.rounds
    ~count:(Vec.length st.cur + Vec.length st.prev);
  match t.variant with
  | Naive ->
      (* Free first, pass after: the next thread cannot free (or even see
         the token) until we are completely done. *)
      Free_policy.dispose t.ctx.Smr_intf.policy th st.prev;
      let empty = st.prev in
      st.prev <- st.cur;
      st.cur <- empty;
      pass_token t th
  | Pass_first ->
      (* The old previous bag becomes the new current bag: it is emptied by
         the dispose below, and no same-thread retire can interleave. *)
      let stash = st.prev in
      st.prev <- st.cur;
      st.cur <- stash;
      pass_token t th;
      Free_policy.dispose t.ctx.Smr_intf.policy th stash
  | Periodic k -> (
      let stash = st.prev in
      st.prev <- st.cur;
      st.cur <- stash;
      pass_token t th;
      match t.ctx.Smr_intf.policy.Free_policy.mode with
      | Free_policy.Batch -> free_bag_periodic t th stash k
      | Free_policy.Amortized _ -> Free_policy.dispose t.ctx.Smr_intf.policy th stash)

let begin_op t (th : Sched.thread) =
  Free_policy.tick t.ctx.Smr_intf.policy th;
  Contention.charge th token_check_cost;
  if t.holder = th.Sched.tid then on_token t t.states.(th.Sched.tid) th
  else if t.holder < 0 then
    (* The token parked because every other thread was dead when its last
       holder retired; the first live thread to look re-adopts it. *)
    t.holder <- th.Sched.tid

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

(* Deregistration: a retiring thread must not take the token to its grave,
   and its limbo bags have not finished their grace period. Both bags are
   adopted into the next live thread's *current* bag — conservatively
   restarting their wait from scratch — and the token, if held, is passed
   on (the pass itself skips dead tids). With no live successor the bags
   stay parked under the dead tid, still counted by [garbage_of], ready to
   resume if the tid respawns. *)
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
  end;
  if t.holder = tid then pass_token t th

let make ?name ~variant (ctx : Smr_intf.ctx) =
  let n = Sched.n_threads ctx.Smr_intf.sched in
  let t =
    {
      ctx;
      variant;
      holder = 0;
      rounds = 0;
      states =
        Array.init n (fun _ -> { cur = Vec.create (); prev = Vec.create (); receipts = 0 });
    }
  in
  let garbage_of tid =
    let st = t.states.(tid) in
    Vec.length st.cur + Vec.length st.prev + Free_policy.pending ctx.Smr_intf.policy tid
  in
  let name =
    match name with
    | Some n -> n
    | None -> (
        match ctx.Smr_intf.policy.Free_policy.mode with
        | Free_policy.Amortized _ -> variant_name variant ^ "_af"
        | Free_policy.Batch -> variant_name variant)
  in
  {
    Smr_intf.name;
    begin_op = begin_op t;
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
