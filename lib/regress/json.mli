(** Minimal self-contained JSON, tuned for deterministic golden files.

    The regression harness (lib/regress) stores every baseline and result as
    JSON so that diffs are reviewable and CI artifacts are greppable, and
    the Chrome trace exporter renders through it. No JSON package is
    assumed. [render] is canonical — the same value always produces the
    same bytes (fixed field order as given, fixed indentation, shortest
    round-trip float form) — so byte-equality of files is a valid
    same-output check and digests of rendered values are stable.

    [render] is exact-size: one pass counts the output bytes, a second
    writes them into a single buffer of that length, and the two must
    agree. Rendering an [n]-byte document allocates [n] bytes once, with
    no growth copies, which matters for traces of tens of megabytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Type_error of string
(** Raised by the [to_*] accessors on a shape mismatch. *)

val type_name : t -> string

(** {1 Accessors} *)

val to_bool : t -> bool
val to_int : t -> int

val to_float : t -> float
(** Accepts [Int] too; non-finite floats round-trip via the strings
    ["nan"], ["inf"] and ["-inf"] (JSON has no literals for them). *)

val to_string : t -> string
val to_list : t -> t list
val to_assoc : t -> (string * t) list

val member : string -> t -> t
(** Field of an object, [Null] when absent.
    @raise Type_error when the value is not an object. *)

val mem : string -> t -> bool

(** {1 Rendering and parsing} *)

val render : ?minify:bool -> t -> string
(** Canonical form: 2-space indent (or none with [~minify:true]), fields in
    the order given, floats in shortest form that round-trips through
    [float_of_string]. Deterministic across runs and processes. Shared
    subtrees render as if copied. *)

val float_str : float -> string
(** The float formatting used by [render]; exposed for tests. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document. Numbers without [.], [e] or [E] become
    [Int] (falling back to [Float] on overflow). Errors carry a byte
    offset. *)

val parse_exn : string -> t
(** @raise Invalid_argument on a parse error. *)
