(** Linearizability / sequential-consistency oracle: record each
    operation's invocation/response in virtual time plus its linearization
    index, then replay against a sequential model of the set, stack or
    queue. Flags result mismatches (corrupted structure) and real-time
    order inversions. *)

type op =
  | Insert of int
  | Delete of int
  | Contains of int
  | Push of int
  | Pop
  | Peek

val op_repr : op -> string

type event = {
  exec : int;  (** linearization index (order the atomic bodies ran in) *)
  tid : int;
  inv : int;  (** invocation, virtual ns *)
  resp : int;  (** response, virtual ns *)
  op : op;
  result : int;  (** observed: 0/1 for set ops, value or -1 for pop/peek *)
}

type t

val create : unit -> t

val linearize : t -> int
(** Claim the next linearization index; call at the operation's
    linearization point, inside the atomic body. *)

val record : t -> exec:int -> tid:int -> inv:int -> resp:int -> op:op -> result:int -> unit

val events : t -> event list
(** Sorted by linearization index. *)

val interleaving : t -> string
(** The observed thread order of linearization points (schedule-digest
    ingredient). *)

val check_set : t -> Oracle.violation list
val check_stack : t -> Oracle.violation list

val check_queue : t -> Oracle.violation list
(** Replay against the sequential model, then check real-time order. *)
