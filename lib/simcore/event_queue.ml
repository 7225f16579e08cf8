(* The scheduler's event queue, selectable between two implementations
   that produce bit-identical pop orders:

   - [Heap]: the original binary min-heap — no preconditions, O(log n)
     per operation, the reference implementation.
   - [Wheel]: a hierarchical timing wheel — O(1) for the short regular
     horizons this simulator generates, but requires the scheduler's
     monotone-pop-key discipline.

   The selection is a first-class value (not a functor) so it can come
   from config or the [EPOCHS_EVENT_QUEUE] environment variable at
   scheduler-creation time; the per-operation cost is one two-way branch,
   noise next to the queue work itself. simbench's cross-validation jobs
   run the same suite entries under both kinds and byte-diff the results. *)

type kind = Heap | Wheel

let to_string = function Heap -> "heap" | Wheel -> "wheel"

let of_string s =
  match String.lowercase_ascii s with
  | "heap" -> Ok Heap
  | "wheel" -> Ok Wheel
  | _ -> Error (Printf.sprintf "unknown event queue %S (expected \"heap\" or \"wheel\")" s)

let env_var = "EPOCHS_EVENT_QUEUE"

(* The wheel is the default: it is digest-identical to the heap, its
   per-event cost does not grow with thread count, and running it
   everywhere keeps the cross-validation gates honest. Measured trial
   wall-clock is within a few percent of the heap's either way (see
   EXPERIMENTS.md); the heap remains one env var away
   ([EPOCHS_EVENT_QUEUE=heap]) for cross-validation and bisection. *)
let default_kind () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Wheel
  | Some s -> (
      match of_string s with
      | Ok k -> k
      | Error msg -> invalid_arg (Printf.sprintf "%s: %s" env_var msg))

type 'a t = H of 'a Heap.t | W of 'a Wheel.t

let create ~kind ~dummy =
  match kind with
  | Heap ->
      let h = Heap.create ~dummy in
      (* The scheduler's keys are thread clocks: monotone by construction,
         so a regression is a bug to fail loudly on (under either kind —
         the wheel always checks). *)
      Heap.enable_monotone_check h;
      H h
  | Wheel -> W (Wheel.create ~dummy ())

let kind = function H _ -> Heap | W _ -> Wheel
let length = function H h -> Heap.length h | W w -> Wheel.length w
let is_empty = function H h -> Heap.is_empty h | W w -> Wheel.is_empty w

let[@inline] push t ~key ~seq x =
  match t with H h -> Heap.push h ~key ~seq x | W w -> Wheel.push w ~key ~seq x

let pop = function H h -> Heap.pop h | W w -> Wheel.pop w
let peek_key = function H h -> Heap.peek_key h | W w -> Wheel.peek_key w

let pop_le t ~bound =
  match t with H h -> Heap.pop_le h ~bound | W w -> Wheel.pop_le w ~bound

let[@inline] pop_le_default t ~bound =
  match t with H h -> Heap.pop_le_default h ~bound | W w -> Wheel.pop_le_default w ~bound

let[@inline] has_le t ~bound =
  match t with H h -> Heap.has_le h ~bound | W w -> Wheel.has_le w ~bound

(* First-class-module view of the two implementations, for tests and
   benchmarks that want to run the same scenario against each directly. *)
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

module Heap_impl : S = struct
  type 'a q = 'a Heap.t

  let create = Heap.create
  let length = Heap.length
  let is_empty = Heap.is_empty
  let push = Heap.push
  let pop = Heap.pop
  let peek_key = Heap.peek_key
  let pop_le = Heap.pop_le
  let pop_le_default = Heap.pop_le_default
  let has_le = Heap.has_le
end

module Wheel_impl : S = struct
  type 'a q = 'a Wheel.t

  let create ~dummy = Wheel.create ~dummy ()
  let length = Wheel.length
  let is_empty = Wheel.is_empty
  let push = Wheel.push
  let pop = Wheel.pop
  let peek_key = Wheel.peek_key
  let pop_le = Wheel.pop_le
  let pop_le_default = Wheel.pop_le_default
  let has_le = Wheel.has_le
end
