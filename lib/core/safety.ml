(* Grace-period safety validator.

   In C/C++ an SMR bug is a segfault; here it is a checkable invariant. For
   reclaimers that rely on grace periods (every epoch-based scheme), an
   object retired at time [r] may only be freed once every *other* thread
   has begun a new operation after [r] — the correctness argument of the
   paper's Section 4. The validator records each thread's latest
   operation-begin time and each handle's retire time, and flags any free
   that violates the rule.

   Pointer-based reclaimers (hazard pointers/eras) are safe by a different
   argument that an operation-granularity simulation cannot observe, so the
   validator is only attached to grace-period reclaimers (see
   [Smr_intf.uses_grace_periods]). *)

type violation = { handle : int; retired_at : int; freed_at : int; blocking_thread : int }

type t = {
  n : int;
  op_begin : int array;  (* per thread: virtual time its current op began *)
  mutable retire_time : int array;  (* dense by handle; -1 = never retired *)
  mutable violations : violation list;
  mutable checked_frees : int;
}

(* [slack] remains only because perfbench/span.ml passes [Sched.epsilon]. *)
let create ?(slack = 0) ~n () =
  if slack <> 0 then
    invalid_arg
      (Printf.sprintf "Safety.create: slack = %d is not supported; dispatch is exact (only 0)"
         slack);
  {
    n;
    op_begin = Array.make n (-1);
    retire_time = Array.make 1024 (-1);
    violations = [];
    checked_frees = 0;
  }

let note_op_begin t ~tid ~time = t.op_begin.(tid) <- time

(* A quiescent thread holds no reference until its next [note_op_begin]: it
   has left the workload loop (until a respawn) or is inside [begin_op]. It
   must not block frees. *)
let note_quiescent t ~tid = t.op_begin.(tid) <- max_int

let ensure t h =
  if h >= Array.length t.retire_time then begin
    let cap = ref (Array.length t.retire_time) in
    while !cap <= h do
      cap := !cap * 2
    done;
    let a = Array.make !cap (-1) in
    Array.blit t.retire_time 0 a 0 (Array.length t.retire_time);
    t.retire_time <- a
  end

let note_retire t ~handle ~time =
  ensure t handle;
  t.retire_time.(handle) <- time

(* Check that freeing [handle] now (by [tid] at [time]) respects the grace
   period. Records a violation instead of raising so a trial can complete
   and report all of them. *)
let check_free t ~tid ~handle ~time =
  t.checked_frees <- t.checked_frees + 1;
  if handle < Array.length t.retire_time then begin
    let retired_at = t.retire_time.(handle) in
    if retired_at >= 0 then
      for j = 0 to t.n - 1 do
        if
          j <> tid
          && t.op_begin.(j) >= 0
          && t.op_begin.(j) < retired_at
          && t.op_begin.(j) <> max_int
        then
          t.violations <-
            { handle; retired_at; freed_at = time; blocking_thread = j } :: t.violations
      done
  end

let violations t = List.rev t.violations
let violation_count t = List.length t.violations
let checked_frees t = t.checked_frees

let pp_violation ppf v =
  Format.fprintf ppf
    "object #%d retired at %dns, freed at %dns while thread %d's op began earlier"
    v.handle v.retired_at v.freed_at v.blocking_thread
