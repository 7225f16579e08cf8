(** Work-stealing Domain pool for independent [(config, seed)] trials.

    Tasks are claimed from a shared atomic counter (self-balancing across
    uneven trial durations) and results are reassembled in submission
    order, so parallel output is {e bit-identical} to sequential output —
    parallelism changes nothing but wall-clock. Trials may share immutable
    configuration only; the simulator itself holds no global mutable state.

    The degree of parallelism resolves as: explicit [?jobs] argument (the
    drivers' [-j] flag), else the [EPOCHS_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. {!resolve_jobs} rejects a [-j]
    below 1 and a malformed [EPOCHS_JOBS] instead of falling back. {!map}
    clamps the count to [[1; #tasks]]; at 1 (or a single task) everything
    runs inline on the calling domain and no domain is ever spawned. *)

val env_var : string
(** ["EPOCHS_JOBS"]. *)

val parse_jobs : string -> int option
(** Parse a job-count override; [None] when malformed or [< 1]. *)

val resolve_jobs : int option -> (int, string) result
(** The job count for an optional [-j] value: [Some j] must be at least 1;
    [None] reads [EPOCHS_JOBS] (unset or empty means
    [Domain.recommended_domain_count ()]), which must parse with
    {!parse_jobs}. [Error] carries a message naming the bad value. *)

val default_jobs : unit -> int
(** [resolve_jobs None].
    @raise Invalid_argument when [EPOCHS_JOBS] is set but malformed. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f tasks] is [List.map f tasks] computed on up to [jobs]
    domains (the calling domain included). Results keep submission order.
    If a task raises, the exception of the first failing task in submission
    order is re-raised after all domains have been joined. *)
