(* Virtual-time event recorder.

   This is the raw storage layer of the tracing subsystem (the "simtrace"
   library renders it to Chrome trace JSON and recomputes the perf-style
   profile from it). The scheduler, the virtual mutex, the allocator models
   and the SMR cores emit span and instant events here; the recorder is a
   preallocated struct-of-int-arrays ring buffer so that

   - when tracing is disabled (the [disabled] sentinel, the default on every
     scheduler) an emission is a single branch on an immutable flag: zero
     minor-heap words, zero virtual-time effect;
   - when tracing is enabled an emission is six int stores into preallocated
     arrays — still allocation-free, so enabling a trace cannot perturb the
     host-performance trajectory, and by construction it never touches a
     thread's clock or metrics, so virtual-time results are bit-identical
     with tracing on or off.

   Events carry two generic int payloads [a]/[b]; their meaning is
   per-kind (documented on [kind] in the mli). Lock events reference their
   mutex by an interned name id ([intern]/[name]); the intern order is a
   deterministic function of the schedule, so trace digests are comparable
   across runs.

   Overflow policy: the ring keeps the newest [capacity] events and counts
   the overwritten ones in [dropped]. Cross-validation against the metrics
   counters requires [dropped = 0]; the profiler refuses partial traces. *)

type kind =
  | Run  (* span: thread executing between checkpoints *)
  | Stall  (* span: controller-injected stall (model checking) *)
  | Preempt  (* span: involuntary timeslice loss (oversubscription) *)
  | Lock_wait  (* instant: a = waiting ns charged, b = lock name id *)
  | Lock_acquire  (* instant: a = wake+transfer overhead ns, b = lock name id *)
  | Lock_hold  (* span: acquisition to release, b = lock name id *)
  | Free_call  (* span: one allocator [free] call (inclusive) *)
  | Flush  (* span: cache-flush ([in_flush]) period, a = objects *)
  | Overflow  (* instant: cache overflow triggering a flush, a = batch size *)
  | Refill  (* span: cache refill from arena/central, a = objects *)
  | Remote_free  (* instant: objects returned to a remote owner, a = count, b = home *)
  | Reclaim  (* span: SMR free-bag reclamation pass, a = objects *)
  | Splice  (* instant: AF bag splice onto the freeable queue, a = objects *)
  | Af_drain  (* span: one amortized-free drain quantum, a = objects *)
  | Epoch_advance  (* instant: a = new epoch / rounds completed *)
  | Epoch_garbage  (* instant: a = unreclaimed objects entering epoch b *)
  | Retire  (* instant: one object handed to the SMR, a = handle *)
  | Measure_start  (* instant: this thread's measured window opened *)
  | Thread_end  (* instant: this thread's final virtual clock *)
  | Yield  (* instant: a checkpoint; a = 1 performed yield, 0 elided *)
  | Hp_protect  (* instant: a hazard-pointer protect loop retried; a = retries *)
  | Hp_scan  (* span: one hazard-pointer retire-list scan; a = objects freed,
                b = retire-list length at scan entry *)
  | Thread_spawn  (* instant: a thread (re)joined the population mid-trial *)
  | Thread_retire  (* instant: a thread retired; its teardown chain follows *)
  | Teardown_flush  (* span: one teardown cache flush / adoption pass;
                       a = objects moved out of the dying thread's caches *)

(* Codes are explicit and never reused: 20, 23 and 24 belonged to kinds of
   the removed sharded/relaxed dispatch loop, and renumbering the rest
   would change every traced digest. *)
let code = function
  | Run -> 0
  | Stall -> 1
  | Preempt -> 2
  | Lock_wait -> 3
  | Lock_acquire -> 4
  | Lock_hold -> 5
  | Free_call -> 6
  | Flush -> 7
  | Overflow -> 8
  | Refill -> 9
  | Remote_free -> 10
  | Reclaim -> 11
  | Splice -> 12
  | Af_drain -> 13
  | Epoch_advance -> 14
  | Epoch_garbage -> 15
  | Retire -> 16
  | Measure_start -> 17
  | Thread_end -> 18
  | Yield -> 19
  | Hp_protect -> 21
  | Hp_scan -> 22
  | Thread_spawn -> 25
  | Thread_retire -> 26
  | Teardown_flush -> 27

let of_code = function
  | 0 -> Run
  | 1 -> Stall
  | 2 -> Preempt
  | 3 -> Lock_wait
  | 4 -> Lock_acquire
  | 5 -> Lock_hold
  | 6 -> Free_call
  | 7 -> Flush
  | 8 -> Overflow
  | 9 -> Refill
  | 10 -> Remote_free
  | 11 -> Reclaim
  | 12 -> Splice
  | 13 -> Af_drain
  | 14 -> Epoch_advance
  | 15 -> Epoch_garbage
  | 16 -> Retire
  | 17 -> Measure_start
  | 18 -> Thread_end
  | 19 -> Yield
  | 21 -> Hp_protect
  | 22 -> Hp_scan
  | 25 -> Thread_spawn
  | 26 -> Thread_retire
  | 27 -> Teardown_flush
  | _ -> invalid_arg "Tracer.of_code: unknown kind"

let kind_name = function
  | Run -> "run"
  | Stall -> "stall"
  | Preempt -> "preempt"
  | Lock_wait -> "lock_wait"
  | Lock_acquire -> "lock_acquire"
  | Lock_hold -> "lock_hold"
  | Free_call -> "free_call"
  | Flush -> "flush"
  | Overflow -> "overflow"
  | Refill -> "refill"
  | Remote_free -> "remote_free"
  | Reclaim -> "reclaim"
  | Splice -> "splice"
  | Af_drain -> "af_drain"
  | Epoch_advance -> "epoch_advance"
  | Epoch_garbage -> "epoch_garbage"
  | Retire -> "retire"
  | Measure_start -> "measure_start"
  | Thread_end -> "thread_end"
  | Yield -> "yield"
  | Hp_protect -> "hp_protect"
  | Hp_scan -> "hp_scan"
  | Thread_spawn -> "thread_spawn"
  | Thread_retire -> "thread_retire"
  | Teardown_flush -> "teardown_flush"

type t = {
  enabled : bool;
  capacity : int;
  kind_c : int array;
  tid_c : int array;
  ts_c : int array;
  dur_c : int array;  (* -1 marks an instant *)
  a_c : int array;
  b_c : int array;
  mutable recorded : int;  (* total events emitted, including overwritten *)
  intern_tbl : (string, int) Hashtbl.t;
  mutable intern_names : string array;
  mutable n_names : int;
  mutable last_run : int array;  (* per-tid start of the open Run span *)
  mutable free_open : int array;  (* per-tid start of the open Free_call span, min_int = none *)
  mutable flush_open : int array;  (* per-tid start of the open Flush span, min_int = none *)
  mutable flush_n : int array;  (* batch size of the open Flush span *)
}

let disabled =
  {
    enabled = false;
    capacity = 0;
    kind_c = [||];
    tid_c = [||];
    ts_c = [||];
    dur_c = [||];
    a_c = [||];
    b_c = [||];
    recorded = 0;
    intern_tbl = Hashtbl.create 1;
    intern_names = [||];
    n_names = 0;
    last_run = [||];
    free_open = [||];
    flush_open = [||];
    flush_n = [||];
  }

let create ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    enabled = true;
    capacity;
    kind_c = Array.make capacity 0;
    tid_c = Array.make capacity 0;
    ts_c = Array.make capacity 0;
    dur_c = Array.make capacity 0;
    a_c = Array.make capacity 0;
    b_c = Array.make capacity 0;
    recorded = 0;
    intern_tbl = Hashtbl.create 64;
    intern_names = Array.make 8 "";
    n_names = 0;
    last_run = [||];
    free_open = [||];
    flush_open = [||];
    flush_n = [||];
  }

let enabled t = t.enabled

let clear t =
  t.recorded <- 0;
  Hashtbl.reset t.intern_tbl;
  t.n_names <- 0;
  Array.fill t.last_run 0 (Array.length t.last_run) 0;
  Array.fill t.free_open 0 (Array.length t.free_open) min_int;
  Array.fill t.flush_open 0 (Array.length t.flush_open) min_int

(* The raw store: six int writes, no bounds checks needed beyond the ring
   index, no allocation. *)
let record t k ~tid ~ts ~dur ~a ~b =
  let i = t.recorded mod t.capacity in
  Array.unsafe_set t.kind_c i k;
  Array.unsafe_set t.tid_c i tid;
  Array.unsafe_set t.ts_c i ts;
  Array.unsafe_set t.dur_c i dur;
  Array.unsafe_set t.a_c i a;
  Array.unsafe_set t.b_c i b;
  t.recorded <- t.recorded + 1

let span t k ~tid ~ts ~dur ~a ~b =
  if t.enabled then begin
    if dur < 0 then invalid_arg "Tracer.span: negative duration";
    record t (code k) ~tid ~ts ~dur ~a ~b
  end

let instant t k ~tid ~ts ~a ~b = if t.enabled then record t (code k) ~tid ~ts ~dur:(-1) ~a ~b

let intern t s =
  match Hashtbl.find_opt t.intern_tbl s with
  | Some i -> i
  | None ->
      let i = t.n_names in
      if i = Array.length t.intern_names then begin
        let bigger = Array.make (max 8 (2 * i)) "" in
        Array.blit t.intern_names 0 bigger 0 i;
        t.intern_names <- bigger
      end;
      t.intern_names.(i) <- s;
      Hashtbl.add t.intern_tbl s i;
      t.n_names <- i + 1;
      i

let name t i = if i < 0 || i >= t.n_names then "?" else t.intern_names.(i)
let names t = Array.sub t.intern_names 0 t.n_names

(* Run-span bookkeeping for the scheduler: [run_span] closes the open Run
   span at a checkpoint, [advance_run] skips the cursor past descheduled
   time (preemptions, controller stalls) without emitting Run. *)
let attach t ~n_threads =
  if t.enabled && Array.length t.last_run < n_threads then begin
    t.last_run <- Array.make n_threads 0;
    t.free_open <- Array.make n_threads min_int;
    t.flush_open <- Array.make n_threads min_int;
    t.flush_n <- Array.make n_threads 0
  end

let run_span t ~tid ~now =
  if t.enabled && tid < Array.length t.last_run then begin
    let last = Array.unsafe_get t.last_run tid in
    if now > last then record t (code Run) ~tid ~ts:last ~dur:(now - last) ~a:0 ~b:0;
    Array.unsafe_set t.last_run tid now
  end

let advance_run t ~tid ~now =
  if t.enabled && tid < Array.length t.last_run then Array.unsafe_set t.last_run tid now

(* Open-span tracking for the inclusive [Free_call]/[Flush] periods. The
   begin/end pairs live in different callees (the instrumented [free] entry
   point vs. the allocator model), and a thread can be abandoned mid-free at
   trial end with its partial inclusive time already in the metrics — the
   runner closes such spans via [close_open] so the trace still accounts for
   every inclusive nanosecond. *)
let free_begin t ~tid ~ts =
  if t.enabled && tid < Array.length t.free_open then Array.unsafe_set t.free_open tid ts

let free_end t ~tid ~ts =
  if t.enabled && tid < Array.length t.free_open then begin
    let s = Array.unsafe_get t.free_open tid in
    if s <> min_int then record t (code Free_call) ~tid ~ts:s ~dur:(ts - s) ~a:0 ~b:0;
    Array.unsafe_set t.free_open tid min_int
  end

let flush_begin t ~tid ~ts ~a =
  if t.enabled && tid < Array.length t.flush_open then begin
    Array.unsafe_set t.flush_open tid ts;
    Array.unsafe_set t.flush_n tid a
  end

let flush_end t ~tid ~ts =
  if t.enabled && tid < Array.length t.flush_open then begin
    let s = Array.unsafe_get t.flush_open tid in
    if s <> min_int then
      record t (code Flush) ~tid ~ts:s ~dur:(ts - s) ~a:(Array.unsafe_get t.flush_n tid) ~b:0;
    Array.unsafe_set t.flush_open tid min_int
  end

let close_open t ~tid ~now =
  if t.enabled && tid < Array.length t.free_open then begin
    flush_end t ~tid ~ts:now;
    free_end t ~tid ~ts:now;
    run_span t ~tid ~now
  end

type event = { seq : int; kind : kind; tid : int; ts : int; dur : int; a : int; b : int }

let recorded t = t.recorded
let retained t = min t.recorded t.capacity
let dropped t = t.recorded - retained t

(* The event with emission index [s], which must still be retained. *)
let event_at t s =
  let i = s mod t.capacity in
  {
    seq = s;
    kind = of_code t.kind_c.(i);
    tid = t.tid_c.(i);
    ts = t.ts_c.(i);
    dur = t.dur_c.(i);
    a = t.a_c.(i);
    b = t.b_c.(i);
  }

let iter t f =
  for s = t.recorded - retained t to t.recorded - 1 do
    f (event_at t s)
  done

let events t =
  let first = t.recorded - retained t in
  Array.init (retained t) (fun j -> event_at t (first + j))

(* Content digest of the retained events + intern table: the determinism
   witness ("same config, same seed, same schedule => same trace"), stable
   across host parallelism because it reads only recorded ints. *)
let digest t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (string_of_int t.recorded);
  Buffer.add_char b '|';
  iter t (fun e ->
      Buffer.add_string b (string_of_int (code e.kind));
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.tid);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.ts);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.dur);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.a);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int e.b);
      Buffer.add_char b ';');
  for i = 0 to t.n_names - 1 do
    Buffer.add_string b t.intern_names.(i);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.bytes (Buffer.to_bytes b))
