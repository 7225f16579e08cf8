(* Per-thread accounting of where virtual time goes.

   This plays the role of Linux perf in the paper: every virtual nanosecond a
   thread spends is attributed to a bucket, and time spent inside a free call
   (resp. inside an allocator cache flush) is *also* accumulated into
   [free_ns] (resp. [flush_ns]), mirroring perf's inclusive sampling of
   [free], [je_tcache_bin_flush_small] and [je_malloc_mutex_lock_slow]. *)

type bucket = Ds | Alloc | Free | Flush | Lock | Smr | Idle

type t = {
  mutable total_ns : int;
  mutable ds_ns : int;
  mutable alloc_ns : int;
  mutable free_ns : int;  (* inclusive: all time while inside free *)
  mutable flush_ns : int;  (* inclusive: all time while inside a flush *)
  mutable lock_ns : int;  (* waiting for or transferring virtual locks *)
  mutable smr_ns : int;
  mutable idle_ns : int;
  (* event counters *)
  mutable ops : int;
  mutable inserts : int;
  mutable deletes : int;
  mutable allocs : int;
  mutable frees : int;  (* objects returned to the allocator *)
  mutable retires : int;  (* objects handed to the SMR *)
  mutable epochs : int;  (* epoch advances performed by this thread *)
  mutable flushes : int;  (* cache-overflow flush events *)
  mutable remote_frees : int;  (* objects returned to a remote owner *)
  mutable yields : int;  (* checkpoint yields actually performed *)
  mutable elided_yields : int;  (* checkpoint yields skipped (thread stayed minimal) *)
  mutable hp_scans : int;  (* hazard-pointer retire-list scans *)
  mutable hp_protect_retries : int;  (* protect/validate loops that had to retry *)
  mutable max_retired : int;  (* high-water mark of any per-thread retire list *)
  mutable thread_spawns : int;  (* threads that (re)joined the population mid-trial *)
  mutable thread_retires : int;  (* threads that retired mid-trial *)
  mutable teardown_frees : int;  (* objects moved out of dying threads' caches *)
  free_call_hist : Histogram.t;  (* latency of individual free calls *)
  op_hist : Histogram.t;  (* virtual latency of whole operations *)
}

let create () =
  {
    total_ns = 0;
    ds_ns = 0;
    alloc_ns = 0;
    free_ns = 0;
    flush_ns = 0;
    lock_ns = 0;
    smr_ns = 0;
    idle_ns = 0;
    ops = 0;
    inserts = 0;
    deletes = 0;
    allocs = 0;
    frees = 0;
    retires = 0;
    epochs = 0;
    flushes = 0;
    remote_frees = 0;
    yields = 0;
    elided_yields = 0;
    hp_scans = 0;
    hp_protect_retries = 0;
    max_retired = 0;
    thread_spawns = 0;
    thread_retires = 0;
    teardown_frees = 0;
    free_call_hist = Histogram.create ();
    op_hist = Histogram.create ();
  }

(* [add t ~in_free ~in_flush bucket ns] attributes [ns] of virtual time.
   The [in_free]/[in_flush] flags implement inclusive accounting. *)
let[@inline] add t ~in_free ~in_flush bucket ns =
  t.total_ns <- t.total_ns + ns;
  if in_free then t.free_ns <- t.free_ns + ns;
  if in_flush then t.flush_ns <- t.flush_ns + ns;
  (match bucket with
  | Ds -> t.ds_ns <- t.ds_ns + ns
  | Alloc -> t.alloc_ns <- t.alloc_ns + ns
  | Free -> ()  (* already covered by the in_free flag *)
  | Flush -> ()  (* already covered by the in_flush flag *)
  | Lock -> t.lock_ns <- t.lock_ns + ns
  | Smr -> t.smr_ns <- t.smr_ns + ns
  | Idle -> t.idle_ns <- t.idle_ns + ns)

let merge into t =
  into.total_ns <- into.total_ns + t.total_ns;
  into.ds_ns <- into.ds_ns + t.ds_ns;
  into.alloc_ns <- into.alloc_ns + t.alloc_ns;
  into.free_ns <- into.free_ns + t.free_ns;
  into.flush_ns <- into.flush_ns + t.flush_ns;
  into.lock_ns <- into.lock_ns + t.lock_ns;
  into.smr_ns <- into.smr_ns + t.smr_ns;
  into.idle_ns <- into.idle_ns + t.idle_ns;
  into.ops <- into.ops + t.ops;
  into.inserts <- into.inserts + t.inserts;
  into.deletes <- into.deletes + t.deletes;
  into.allocs <- into.allocs + t.allocs;
  into.frees <- into.frees + t.frees;
  into.retires <- into.retires + t.retires;
  into.epochs <- into.epochs + t.epochs;
  into.flushes <- into.flushes + t.flushes;
  into.remote_frees <- into.remote_frees + t.remote_frees;
  into.yields <- into.yields + t.yields;
  into.elided_yields <- into.elided_yields + t.elided_yields;
  into.hp_scans <- into.hp_scans + t.hp_scans;
  into.hp_protect_retries <- into.hp_protect_retries + t.hp_protect_retries;
  into.max_retired <- max into.max_retired t.max_retired;
  into.thread_spawns <- into.thread_spawns + t.thread_spawns;
  into.thread_retires <- into.thread_retires + t.thread_retires;
  into.teardown_frees <- into.teardown_frees + t.teardown_frees;
  Histogram.merge into.free_call_hist t.free_call_hist;
  Histogram.merge into.op_hist t.op_hist

(* Snapshot of the counters (shares the histogram, which is only read at
   the end of a run). *)
let copy t = { t with total_ns = t.total_ns }

(* Counter-wise [after] - [before]; used to isolate the measured window of
   a trial from its prefill/warmup. Histograms are not diffed: the caller
   gets [after]'s histogram, which covers the whole run. *)
let diff ~before ~after =
  {
    total_ns = after.total_ns - before.total_ns;
    ds_ns = after.ds_ns - before.ds_ns;
    alloc_ns = after.alloc_ns - before.alloc_ns;
    free_ns = after.free_ns - before.free_ns;
    flush_ns = after.flush_ns - before.flush_ns;
    lock_ns = after.lock_ns - before.lock_ns;
    smr_ns = after.smr_ns - before.smr_ns;
    idle_ns = after.idle_ns - before.idle_ns;
    ops = after.ops - before.ops;
    inserts = after.inserts - before.inserts;
    deletes = after.deletes - before.deletes;
    allocs = after.allocs - before.allocs;
    frees = after.frees - before.frees;
    retires = after.retires - before.retires;
    epochs = after.epochs - before.epochs;
    flushes = after.flushes - before.flushes;
    remote_frees = after.remote_frees - before.remote_frees;
    yields = after.yields - before.yields;
    elided_yields = after.elided_yields - before.elided_yields;
    hp_scans = after.hp_scans - before.hp_scans;
    hp_protect_retries = after.hp_protect_retries - before.hp_protect_retries;
    thread_spawns = after.thread_spawns - before.thread_spawns;
    thread_retires = after.thread_retires - before.thread_retires;
    teardown_frees = after.teardown_frees - before.teardown_frees;
    (* A high-water mark cannot be windowed: the [after] value is the whole
       run's maximum, which is the honest upper bound for any window. *)
    max_retired = after.max_retired;
    free_call_hist = after.free_call_hist;
    op_hist = after.op_hist;
  }

let pct part total = if total = 0 then 0. else 100. *. float_of_int part /. float_of_int total

let pct_free t = pct t.free_ns t.total_ns
let pct_flush t = pct t.flush_ns t.total_ns
let pct_lock t = pct t.lock_ns t.total_ns
