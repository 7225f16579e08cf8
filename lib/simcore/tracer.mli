(** Virtual-time event recorder: the storage layer of the tracing subsystem.

    The scheduler, {!Sim_mutex}, the allocator models and the SMR cores emit
    span and instant events into a preallocated struct-of-int-arrays ring
    buffer. Emission never touches a thread's clock or metrics — virtual-time
    results are bit-identical with tracing on or off — and allocates nothing
    on the OCaml heap in either state; with the {!disabled} sentinel (the
    default on every scheduler) an emission is a single branch.

    The [simtrace] library renders a recorder to Chrome trace-event JSON and
    recomputes the paper's perf-style profile from it; {!digest} is the
    determinism witness used by the regression tests. *)

(** Event kinds. [a]/[b] are per-kind int payloads:
    - [Run]/[Stall]/[Preempt]: scheduler spans (executing, controller stall,
      timeslice preemption); payloads unused.
    - [Lock_wait]: instant, [a] = waiting ns charged to the Lock bucket,
      [b] = interned lock name. [Lock_acquire]: instant, [a] = wake+transfer
      overhead ns, [b] = lock name. [Lock_hold]: span from acquisition to
      release, [b] = lock name.
    - [Free_call]: span of one allocator [free] call (inclusive, equals the
      [free_ns] attribution). [Flush]: span of an [in_flush] period, [a] =
      objects flushed. [Overflow]: instant at a cache-overflow event (the
      [flushes] counter), [a] = batch size. [Refill]: span, [a] = objects.
      [Remote_free]: instant, [a] = objects returned to a remote owner
      (the [remote_frees] counter), [b] = destination home/bin.
    - [Reclaim]: span of an SMR free-bag pass, [a] = objects. [Splice]:
      instant, amortized-free bag splice, [a] = objects. [Af_drain]: span of
      one amortized-free drain quantum, [a] = objects.
    - [Epoch_advance]: instant, [a] = new epoch (the [epochs] counter).
      [Epoch_garbage]: instant, [a] = unreclaimed count entering epoch [b].
      [Retire]: instant, [a] = handle.
    - [Measure_start]: instant marking a thread's measured-window snapshot;
      [Thread_end]: instant carrying a thread's final clock. Emitted by the
      runner; the profiler windows every per-thread sum between them (by
      emission order, mirroring the runner's metric snapshots exactly).
    - [Yield]: instant at every scheduler checkpoint, [a] = 1 when the
      yield was performed, 0 when it was elided (the thread stayed the
      minimum and ran straight through) — the [yields]/[elided_yields]
      counters.
    - [Hp_protect]: instant when a hazard-pointer protect/validate loop had
      to retry, [a] = retries charged (the [hp_protect_retries] counter).
      [Hp_scan]: span of one hazard-pointer retire-list scan (the
      [hp_scans] counter), [a] = objects found reclaimable, [b] =
      retire-list length at scan entry.
    - [Thread_spawn]: instant when a thread (re)joins the population
      mid-trial (the [thread_spawns] counter). [Thread_retire]: instant
      when a thread retires, emitted before its teardown hook chain runs
      (the [thread_retires] counter). [Teardown_flush]: span of one
      teardown flush/adoption pass, [a] = objects moved out of the dying
      thread's caches (summed into the [teardown_frees] counter). *)
type kind =
  | Run
  | Stall
  | Preempt
  | Lock_wait
  | Lock_acquire
  | Lock_hold
  | Free_call
  | Flush
  | Overflow
  | Refill
  | Remote_free
  | Reclaim
  | Splice
  | Af_drain
  | Epoch_advance
  | Epoch_garbage
  | Retire
  | Measure_start
  | Thread_end
  | Yield
  | Hp_protect
  | Hp_scan
  | Thread_spawn
  | Thread_retire
  | Teardown_flush

val code : kind -> int
val of_code : int -> kind
val kind_name : kind -> string

type t

val disabled : t
(** The no-op recorder: never enabled, records nothing. *)

val create : ?capacity:int -> unit -> t
(** A live recorder keeping the newest [capacity] (default [2^20]) events;
    older events are overwritten and counted in {!dropped}.
    @raise Invalid_argument if [capacity <= 0]. *)

val enabled : t -> bool

val clear : t -> unit
(** Drop all recorded events and interned names (for recorder reuse). *)

val span : t -> kind -> tid:int -> ts:int -> dur:int -> a:int -> b:int -> unit
(** Record a span event ([ts], [ts + dur]] on [tid]'s lane. No-op when
    disabled. Allocation-free.
    @raise Invalid_argument on a negative duration (enabled only). *)

val instant : t -> kind -> tid:int -> ts:int -> a:int -> b:int -> unit
(** Record an instant event. No-op when disabled. Allocation-free. *)

val intern : t -> string -> int
(** Intern a lock name, returning its id (stable for the tracer's lifetime;
    assignment order follows first use, so it is schedule-deterministic). *)

val name : t -> int -> string
(** The name behind an interned id (["?"] if out of range). *)

val names : t -> string array

val attach : t -> n_threads:int -> unit
(** Size the per-thread Run-span cursors; called by [Sched.set_tracer]. *)

val run_span : t -> tid:int -> now:int -> unit
(** Close the open [Run] span of [tid] at [now] (emitting it if non-empty)
    and start the next one. Called by the scheduler at checkpoints. *)

val advance_run : t -> tid:int -> now:int -> unit
(** Skip [tid]'s Run cursor to [now] without emitting (descheduled time). *)

val free_begin : t -> tid:int -> ts:int -> unit
(** Open [tid]'s inclusive [Free_call] span (the instrumented [free] entry
    point). Allocation-free; no-op when disabled. *)

val free_end : t -> tid:int -> ts:int -> unit
(** Close and emit [tid]'s open [Free_call] span, if any. *)

val flush_begin : t -> tid:int -> ts:int -> a:int -> unit
(** Open [tid]'s [Flush] span ([a] = batch size). *)

val flush_end : t -> tid:int -> ts:int -> unit
(** Close and emit [tid]'s open [Flush] span, if any. *)

val close_open : t -> tid:int -> now:int -> unit
(** Close any spans still open on [tid] at [now] — a thread abandoned at
    trial end mid-free (e.g. suspended on a bin lock) has partial inclusive
    time in its metrics, and the trace must account for it too. Called by
    the runner after the scheduler drains. *)

type event = { seq : int; kind : kind; tid : int; ts : int; dur : int; a : int; b : int }
(** [seq] is the global emission index (a total order over the whole run);
    [dur = -1] marks an instant. *)

val recorded : t -> int
(** Total events emitted, including overwritten ones. *)

val retained : t -> int
(** Events still in the ring ([min recorded capacity]). *)

val dropped : t -> int
(** Events lost to ring wraparound ([recorded - retained]). *)

val iter : t -> (event -> unit) -> unit
(** Iterate the retained events, oldest first (increasing [seq]). *)

val events : t -> event array

val digest : t -> string
(** MD5 over the retained events and intern table: identical for identical
    schedules, the trace-determinism witness. *)
