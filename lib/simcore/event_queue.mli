(** The scheduler's event queue: the binary {!Heap} or the hierarchical
    timing {!Wheel}, selected per scheduler instance.

    Both implementations pop in exactly the same [(key, seq)] order, so a
    run is bit-identical under either — simbench's cross-validation jobs
    byte-diff result files produced under both to prove it. The wheel is
    the default (O(1) for this simulator's short regular event horizons);
    the heap is the precondition-free reference, one env var away for
    bisection. *)

type kind = Heap | Wheel

val to_string : kind -> string

val of_string : string -> (kind, string) result
(** Case-insensitive ["heap"] / ["wheel"]. *)

val env_var : string
(** ["EPOCHS_EVENT_QUEUE"]. *)

val default_kind : unit -> kind
(** The kind named by [EPOCHS_EVENT_QUEUE], or {!Wheel} when unset/empty.
    @raise Invalid_argument when the variable holds an unknown name. *)

type 'a t

val create : kind:kind -> dummy:'a -> 'a t
(** Monotone-key checking is always on (it is inherent to the wheel and
    enabled on the heap): a push behind the last popped key raises a
    descriptive [Failure] instead of silently reordering. *)

val kind : 'a t -> kind
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> key:int -> seq:int -> 'a -> unit
val pop : 'a t -> 'a option
val peek_key : 'a t -> int option
val pop_le : 'a t -> bound:int -> 'a option

val pop_le_default : 'a t -> bound:int -> 'a
(** As {!pop_le} but returns the [dummy] sentinel instead of [None] — no
    allocation per dispatched event. Compare against the dummy physically. *)

val has_le : 'a t -> bound:int -> bool
(** Whether some event may have key [<= bound]: exact for the heap,
    conservative for the wheel (may say [true] for an event slightly
    later, never [false] when one exists) — the contract the scheduler's
    checkpoint fast path needs. *)

(** Common signature over the two implementations, for tests/benchmarks
    driving each directly. *)
module type S = sig
  type 'a q

  val create : dummy:'a -> 'a q
  val length : 'a q -> int
  val is_empty : 'a q -> bool
  val push : 'a q -> key:int -> seq:int -> 'a -> unit
  val pop : 'a q -> 'a option
  val peek_key : 'a q -> int option
  val pop_le : 'a q -> bound:int -> 'a option
  val pop_le_default : 'a q -> bound:int -> 'a
  val has_le : 'a q -> bound:int -> bool
end

module Heap_impl : S
module Wheel_impl : S
