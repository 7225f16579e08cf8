(** Hierarchical timing wheel keyed by [(time, sequence)] — a drop-in,
    bit-exact replacement for the scheduler's binary {!Heap}.

    Pops come out in exactly the heap's [(key, seq)] order. The wheel
    exploits two scheduler invariants to make that cheap: pop keys are
    monotone non-decreasing (thread clocks only advance, lock handoffs
    jump waiter clocks forward before re-enqueueing), and sequence numbers
    grow with every push (so any bucket's entries are already tie-ordered
    and a stable per-bucket sort by key restores the total order).

    Three levels of 256 fixed-width buckets; with the default 512 ns
    granularity (sized from the cost model's delay distribution — op-scale
    deltas are ~200–1500 ns, lock wakes 800–6000 ns, the preemption
    quantum 1 ms) they span 131 us / 33.5 ms / 8.6 s. Near-future
    insertions are O(1); crossing an upper-level bucket boundary cascades
    its contents one level down; keys beyond the top horizon wait in an
    unsorted overflow list. The bucket containing the current time is kept
    unpacked in a sorted staging array popped from the front.

    Steady-state [push]/[pop] allocates nothing: all storage is reused
    arrays that grow amortized, like the heap's. *)

type 'a t

val create : ?granularity_bits:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] builds an empty wheel anchored at virtual time 0.
    [granularity_bits] (default 9, i.e. 512 ns buckets) sets the level-0
    bucket width to [2^granularity_bits] ns.
    @raise Invalid_argument when [granularity_bits] is outside [1, 20]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert with primary key [key] (virtual time, must be non-negative) and
    tie-break [seq] (must exceed every previously pushed seq; the
    scheduler's global counter guarantees this).
    @raise Failure on a clock regression — [key] earlier than the last
    popped key — instead of silently reordering. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element in [(key, seq)] order. *)

val peek_key : 'a t -> int option
(** The minimum key without removing it (may advance the wheel's internal
    hand; semantically invisible). *)

val pop_le : 'a t -> bound:int -> 'a option
(** [pop_le t ~bound] removes and returns the minimum element if its key
    is [<= bound]; [None] when the wheel is empty or the minimum is beyond
    [bound] (the wheel's hand never advances past [bound]). *)

val pop_le_default : 'a t -> bound:int -> 'a
(** As {!pop_le} but returns the [dummy] sentinel instead of [None] — the
    scheduler's dispatch loop fast path, allocating nothing per event.
    Compare the result against the dummy physically. *)

val has_le : 'a t -> bound:int -> bool
(** Conservative test for "some event has key [<= bound]": exact whenever
    the current bucket is non-empty, otherwise based on bucket start
    times, so it may answer [true] for an event slightly beyond [bound]
    but never [false] when one exists. O(occupancy words), no cascading —
    cheap enough for every scheduler checkpoint. *)

